"""Concrete graded matrices over K or K[x^m, x^-m], with exact integer
arithmetic.  This is the verification layer: certificate steps claimed to be
graded isomorphisms are replayed here on actual matrices and checked to move
homogeneous components degree to degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebras import GlobalShift, GradedBase, Permute, Step, _check_step
from .errors import ShapeMismatchError


class LaurentElement:
    """A Laurent polynomial with integer coefficients, stored sparsely.

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
    def zero(cls) -> "LaurentElement":
        return cls()

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "LaurentElement":
        return cls({degree: coeff})

    def items(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._terms.items()))

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentElement({0: other})
        if not isinstance(other, LaurentElement):
            return NotImplemented
        out = dict(self._terms)
        for deg, coeff in other._terms.items():
            new = out.get(deg, 0) + coeff
            if new:
                out[deg] = new
            else:
                out.pop(deg, None)
        return LaurentElement(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentElement({d: -c for d, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentElement({0: other})
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentElement({d: c * other for d, c in self._terms.items()})
        if not isinstance(other, LaurentElement):
            return NotImplemented
        out: dict[int, int] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                d = d1 + d2
                new = out.get(d, 0) + c1 * c2
                if new:
                    out[d] = new
                else:
                    out.pop(d, None)
        return LaurentElement(out)

    __rmul__ = __mul__

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


@dataclass(frozen=True)
class GradedMatrix:
    """A square matrix over the base ring, graded through its shift list.

    The monomial x^e at entry (i, j) is homogeneous of degree e + g_i - g_j.
    Entries are 0-based internally; certificate steps keep their 1-based
    indices.
    """

    base: GradedBase
    shifts: tuple[int, ...]
    entries: tuple[tuple[LaurentElement, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(self.shifts))
        object.__setattr__(
            self, "entries", tuple(tuple(_as_element(x) for x in row) for row in self.entries)
        )
        n = len(self.shifts)
        if n < 1:
            raise ValueError("matrix size must be positive")
        if len(self.entries) != n or any(len(row) != n for row in self.entries):
            raise ValueError(f"entries must form an {n}x{n} square")
        for row in self.entries:
            for el in row:
                for deg in el.degrees():
                    if self.base.is_trivial and deg != 0:
                        raise ValueError("entries over K must sit in degree 0")
                    if self.base.is_laurent and deg % self.base.period != 0:
                        raise ValueError(
                            f"entry degree {deg} is not a multiple of the period {self.base.period}"
                        )

    @property
    def n(self) -> int:
        return len(self.shifts)

    @classmethod
    def zero(cls, base: GradedBase, shifts) -> "GradedMatrix":
        n = len(tuple(shifts))
        z = LaurentElement.zero()
        return cls(base, tuple(shifts), tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @classmethod
    def identity(cls, base: GradedBase, shifts) -> "GradedMatrix":
        shifts = tuple(shifts)
        n = len(shifts)
        one = LaurentElement.monomial(0)
        z = LaurentElement.zero()
        return cls(base, shifts, tuple(tuple(one if i == j else z for j in range(n)) for i in range(n)))

    def __add__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        if self.base != other.base or self.shifts != other.shifts:
            raise ShapeMismatchError("matrix addition needs identical base and shifts")
        return GradedMatrix(
            self.base,
            self.shifts,
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)
            ),
        )


def matrix_unit(base: GradedBase, shifts, i: int, j: int, element=1) -> GradedMatrix:
    """The matrix with `element` at (i, j), 1-based, and zeros elsewhere."""
    shifts = tuple(shifts)
    n = len(shifts)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"unit position ({i},{j}) out of range 1..{n}")
    el = _as_element(element)
    z = LaurentElement.zero()
    rows = tuple(
        tuple(el if (r, c) == (i - 1, j - 1) else z for c in range(n)) for r in range(n)
    )
    return GradedMatrix(base, shifts, rows)


def homogeneous_components(matrix: GradedMatrix) -> dict[int, GradedMatrix]:
    """Split a matrix into its nonzero homogeneous components, keyed by degree.

    The sum of the components reconstructs the matrix exactly.
    """
    shifts = matrix.shifts
    n = matrix.n
    buckets: dict[int, list[list[dict[int, int]]]] = {}
    for i in range(n):
        for j in range(n):
            for deg, coeff in matrix.entries[i][j].items():
                delta = deg + shifts[i] - shifts[j]
                grid = buckets.get(delta)
                if grid is None:
                    grid = [[{} for _ in range(n)] for _ in range(n)]
                    buckets[delta] = grid
                grid[i][j][deg] = coeff
    return {
        delta: GradedMatrix(
            matrix.base,
            shifts,
            tuple(tuple(LaurentElement(cell) for cell in row) for row in grid),
        )
        for delta, grid in sorted(buckets.items())
    }


def multiply(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Matrix product; both operands must share size, base and shifts."""
    if a.base != b.base or a.shifts != b.shifts:
        raise ShapeMismatchError("matrix product needs identical base and shifts")
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentElement.zero()
            for k in range(n):
                if a.entries[i][k] and b.entries[k][j]:
                    acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return GradedMatrix(a.base, a.shifts, tuple(rows))


def conjugate_by_step(matrix: GradedMatrix, step: Step) -> GradedMatrix:
    """Replay one certificate step on an actual matrix.

    Permute conjugates by the permutation matrix, GlobalShift only relabels
    the grading, and EntryShift(i, d) conjugates by diag(..., x^d at i, ...).
    Homogeneous components land degree on degree in the new shift list.
    """
    n = matrix.n
    _check_step(step, n, matrix.base, f"{n}x{n} matrix")
    if isinstance(step, Permute):
        img = step.image
        entries = tuple(
            tuple(matrix.entries[img[i] - 1][img[j] - 1] for j in range(n)) for i in range(n)
        )
        shifts = tuple(matrix.shifts[img[i] - 1] for i in range(n))
        return GradedMatrix(matrix.base, shifts, entries)
    if isinstance(step, GlobalShift):
        return GradedMatrix(
            matrix.base, tuple(s + step.delta for s in matrix.shifts), matrix.entries
        )
    i0 = step.index - 1
    down = LaurentElement.monomial(-step.delta)
    up = LaurentElement.monomial(step.delta)
    rows = [list(row) for row in matrix.entries]
    for j in range(n):
        if j != i0:
            rows[i0][j] = rows[i0][j] * down
            rows[j][i0] = rows[j][i0] * up
    shifts = list(matrix.shifts)
    shifts[i0] += step.delta
    return GradedMatrix(matrix.base, tuple(shifts), tuple(tuple(r) for r in rows))


def conjugate_by_certificate(matrix: GradedMatrix, steps) -> GradedMatrix:
    for step in steps:
        matrix = conjugate_by_step(matrix, step)
    return matrix
