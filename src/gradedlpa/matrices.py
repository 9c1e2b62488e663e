"""Concrete graded matrices over K or K[x^m, x^-m], with exact integer
arithmetic.  Certificate steps are replayed here on actual matrices, where
each step moves homogeneous components degree to degree.  Steps are checked
by `apply_certificate`, not here.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain

from .algebras import EntryShift, GradedBase, Permute, Step, _Record, apply_certificate
from .errors import ShapeMismatchError


class LaurentElement:
    """One matrix entry: a Laurent polynomial with integer coefficients,
    stored sparsely.  It has no arithmetic; sums and products are taken on
    whole matrices.

    Zero coefficients are never stored; the zero element has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        data = {}
        for deg, coeff in (terms or {}).items():
            if not isinstance(deg, int) or not isinstance(coeff, int):
                raise ValueError("degrees and coefficients must be integers")
            if coeff:
                data[deg] = coeff
        self._terms = data

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "LaurentElement":
        return cls({degree: coeff})

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for deg, coeff in sorted(self._terms.items()):
            if deg == 0:
                parts.append(str(coeff))
            else:
                head = "" if coeff == 1 else "-" if coeff == -1 else str(coeff)
                parts.append(f"{head}x^{deg}")
        return " + ".join(parts).replace("+ -", "- ")


def _as_element(value) -> LaurentElement:
    if isinstance(value, LaurentElement):
        return value
    if isinstance(value, int):
        return LaurentElement({0: value})
    raise ValueError(f"cannot use {value!r} as a matrix entry")


class GradedMatrix(_Record):
    """A square matrix over the base ring, graded through its shift list.

    Stored as its nonzero terms {(i, j, e): c}: the monomial c*x^e at entry
    (i, j), homogeneous of degree e + g_i - g_j.  Entries are 0-based
    internally; certificate steps keep their 1-based indices.  `entries`
    lists the rows of LaurentElements on request.  Equality and repr are
    those of the fields; the hash reads the terms as a frozenset.
    """

    __match_args__ = ("base", "shifts", "_terms")
    base: GradedBase
    shifts: tuple[int, ...]
    _terms: dict[tuple[int, int, int], int]

    def __init__(self, base: GradedBase, shifts, entries):
        rows = tuple(tuple(_as_element(x) for x in row) for row in entries)
        shifts = _shift_tuple(shifts)
        n = len(shifts)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"entries must form an {n}x{n} square")
        cells = ((i, j, el) for i, row in enumerate(rows) for j, el in enumerate(row))
        vars(self).update(base=base, shifts=shifts, _terms=_checked_terms(base, cells))

    @classmethod
    def _from_terms(cls, base: GradedBase, shifts: tuple, terms: dict) -> "GradedMatrix":
        """Skip the checks of __init__ for nonzero terms of allowed degrees."""
        matrix = cls.__new__(cls)
        vars(matrix).update(base=base, shifts=shifts, _terms=terms)
        return matrix

    @property
    def n(self) -> int:
        return len(self.shifts)

    @property
    def entries(self) -> tuple[tuple[LaurentElement, ...], ...]:
        """The rows as n tuples of n LaurentElements, built on each call."""
        cells = [[{} for _ in self.shifts] for _ in self.shifts]
        for (i, j, e), c in self._terms.items():
            cells[i][j][e] = c
        return tuple(tuple(LaurentElement(cell) for cell in row) for row in cells)

    def __hash__(self):
        return hash((self.base, self.shifts, frozenset(self._terms.items())))

    @classmethod
    def zero(cls, base: GradedBase, shifts) -> "GradedMatrix":
        return cls._from_terms(base, _shift_tuple(shifts), {})

    @classmethod
    def identity(cls, base: GradedBase, shifts) -> "GradedMatrix":
        shifts = _shift_tuple(shifts)
        return cls._from_terms(base, shifts, {(i, i, 0): 1 for i in range(len(shifts))})

    def __add__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        if self.base != other.base or self.shifts != other.shifts:
            raise ShapeMismatchError("matrix addition needs identical base and shifts")
        terms = _collect(chain(self._terms.items(), other._terms.items()))
        return GradedMatrix._from_terms(self.base, self.shifts, terms)


def _shift_tuple(shifts) -> tuple[int, ...]:
    shifts = tuple(shifts)
    if not shifts:
        raise ValueError("matrix size must be positive")
    return shifts


def _collect(terms) -> dict[tuple[int, int, int], int]:
    """Sum the coefficients of (key, c) pairs per key and drop the zeros."""
    total: dict[tuple[int, int, int], int] = {}
    for key, c in terms:
        total[key] = total.get(key, 0) + c
    return {key: c for key, c in total.items() if c}


def _checked_terms(base: GradedBase, cells) -> dict[tuple[int, int, int], int]:
    """The terms of (i, j, element) cells; raises ValueError for a degree the
    base does not have."""
    terms = {}
    for i, j, element in cells:
        for deg, coeff in element.items():
            if base.is_trivial and deg != 0:
                raise ValueError("entries over K must sit in degree 0")
            if base.is_laurent and deg % base.period != 0:
                raise ValueError(f"entry degree {deg} is not a multiple of the period {base.period}")
            terms[i, j, deg] = coeff
    return terms


def homogeneous_components(matrix: GradedMatrix) -> dict[int, GradedMatrix]:
    """Split a matrix into its nonzero homogeneous components, keyed by
    ascending degree.  The sum of the components is the matrix.  The certify
    benchmark reads it to check that a replay lands degree on degree.

    Over K[x^2] with shifts (0, 1), the entry 1 + 3x^2 at (1, 2) holds
    degrees 0 + 0 - 1 and 2 + 0 - 1:

    >>> m = GradedMatrix(GradedBase.laurent(2), (0, 1), ((5, LaurentElement({0: 1, 2: 3})), (0, 0)))
    >>> {degree: part.entries[0] for degree, part in homogeneous_components(m).items()}
    {-1: (0, 1), 0: (5, 0), 1: (0, 3x^2)}
    """
    shifts = matrix.shifts
    parts: dict[int, dict] = {}
    for (i, j, e), c in matrix._terms.items():
        parts.setdefault(e + shifts[i] - shifts[j], {})[i, j, e] = c
    return {degree: GradedMatrix._from_terms(matrix.base, shifts, parts[degree]) for degree in sorted(parts)}


def multiply(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Matrix product; both operands must share size, base and shifts."""
    if a.base != b.base or a.shifts != b.shifts:
        raise ShapeMismatchError("matrix product needs identical base and shifts")
    rows: dict[int, list[tuple[int, int, int]]] = {}
    for (k, j, e), c in b._terms.items():
        rows.setdefault(k, []).append((j, e, c))
    products = (((i, j, e1 + e2), c1 * c2) for (i, k, e1), c1 in a._terms.items() for j, e2, c2 in rows.get(k, ()))
    return GradedMatrix._from_terms(a.base, a.shifts, _collect(products))


def conjugate_by_step(matrix: GradedMatrix, step: Step) -> GradedMatrix:
    """Replay one certificate step on an actual matrix.

    Permute conjugates by the permutation matrix, GlobalShift only relabels
    the grading, and EntryShift(i, d) conjugates by diag(..., x^d at i, ...).
    Homogeneous components land degree on degree in the new shift list.
    apply_certificate checks the step and gives the new shifts; only the
    terms move here.
    """
    shifts = apply_certificate(matrix.shifts, (step,), matrix.base)
    terms = matrix._terms
    kind = type(step)
    if kind is Permute:
        # entry (i, j) of the image is entry (image[i], image[j])
        new = {old - 1: i for i, old in enumerate(step.image)}
        terms = {(new[i], new[j], e): c for (i, j, e), c in terms.items()}
    elif kind is EntryShift:
        # row k is divided by x^d and column k multiplied by it
        k, d = step.index - 1, step.delta
        terms = {(i, j, e + d * ((j == k) - (i == k))): c for (i, j, e), c in terms.items()}
    return GradedMatrix._from_terms(matrix.base, shifts, terms)


def conjugate_by_certificate(matrix: GradedMatrix, steps) -> GradedMatrix:
    """conjugate_by_step once per step.  This stays public while the
    benchmark's tracer wraps it by name."""
    for step in steps:
        matrix = conjugate_by_step(matrix, step)
    return matrix
