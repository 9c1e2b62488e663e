"""Shifted matrix algebras over a trivially graded field K or over a graded
Laurent ring K[x^m, x^-m], together with canonical multiplicity forms and the
graded-isomorphism decision procedure.

The algebra M_n(base)(g_1, ..., g_n) places the entry at (i, j) in degree
e + g_i - g_j when the entry is the monomial x^e.  Two shift lists present
graded isomorphic algebras exactly when one can be carried to the other by a
finite sequence of three elementary moves:

  * Permute(pi):        reorder the shift list by pi,
  * GlobalShift(d):     add d to every shift (an equality of graded rings),
  * EntryShift(i, d):   add d to shift i; needs an invertible element of
                        degree d in the base, so it exists only over a Laurent
                        base with d a multiple of the period.

Certificate steps use 1-based indices, matching matrix-unit notation e_ii.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import InvalidStepError, NotIsomorphicError

# canonical_form materializes dense multiplicity vectors; refuse absurd spreads
_MAX_DENSE_MULTS = 5_000_000


@dataclass(frozen=True)
class GradedBase:
    """The graded coefficient ring: the field K (period None) or the Laurent
    ring K[x^m, x^-m] whose support is the multiples of m."""

    period: int | None = None

    def __post_init__(self):
        if self.period is not None and self.period < 1:
            raise ValueError("Laurent period must be a positive integer")

    @classmethod
    def trivial(cls) -> "GradedBase":
        return cls(None)

    @classmethod
    def laurent(cls, m: int) -> "GradedBase":
        if m is None:
            raise ValueError("Laurent period must be a positive integer")
        return cls(m)

    @property
    def is_trivial(self) -> bool:
        return self.period is None

    @property
    def is_laurent(self) -> bool:
        return self.period is not None

    def __str__(self):
        return "K" if self.period is None else f"K[x^{self.period}]"


@dataclass(frozen=True)
class ShiftedMatrixAlgebra:
    """M_n(base) with suspension shifts g_1..g_n attached to the rows."""

    base: GradedBase
    n: int
    shifts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(self.shifts))
        if self.n < 1:
            raise ValueError("matrix size must be positive")
        if len(self.shifts) != self.n:
            raise ValueError(f"expected {self.n} shifts, got {len(self.shifts)}")

    @classmethod
    def from_shifts(cls, base: GradedBase, shifts: Iterable[int]) -> "ShiftedMatrixAlgebra":
        t = tuple(shifts)
        return cls(base, len(t), t)

    def __str__(self):
        return f"M{self.n}({self.base})({','.join(str(s) for s in self.shifts)})"


@dataclass(frozen=True)
class DirectSumAlgebra:
    """A finite, nonempty direct sum of shifted matrix algebras."""

    summands: tuple[ShiftedMatrixAlgebra, ...]

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        if not self.summands:
            raise ValueError("a direct sum needs at least one summand")

    def __str__(self):
        return " (+) ".join(str(a) for a in self.summands)


# --- canonical forms ---


@dataclass(frozen=True)
class TrivialForm:
    """Canonical form over K: shifts normalized to start at 0 and sorted.

    k is the largest normalized shift; mults[i] counts occurrences of i, so
    mults has k+1 entries with mults[0] >= 1 and mults[k] >= 1.
    """

    k: int
    mults: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(self.mults))
        if self.k < 0 or len(self.mults) != self.k + 1:
            raise ValueError("mults must list l_0..l_k")
        if self.mults[0] < 1 or self.mults[-1] < 1 or any(c < 0 for c in self.mults):
            raise ValueError("l_0 and l_k must be positive, all counts nonnegative")
        if sum(self.mults) < 1:
            raise ValueError("empty multiplicity vector")

    def __str__(self):
        return f"trivial k={self.k} mults=({','.join(str(c) for c in self.mults)})"


@dataclass(frozen=True)
class CyclicForm:
    """Canonical form over K[x^m, x^-m]: residue multiplicities mod m, stored
    at their lexicographically least rotation."""

    period: int
    mults: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(self.mults))
        if self.period < 1 or len(self.mults) != self.period:
            raise ValueError("mults must list l_0..l_{m-1}")
        if any(c < 0 for c in self.mults) or sum(self.mults) < 1:
            raise ValueError("counts must be nonnegative and not all zero")
        r = least_rotation_index(self.mults)
        if r != 0:
            raise ValueError("mults must be stored at their least rotation")

    def __str__(self):
        return f"cyclic m={self.period} mults=({','.join(str(c) for c in self.mults)})"


CanonicalForm = Union[TrivialForm, CyclicForm]


def least_rotation_index(seq: Sequence[int]) -> int:
    """Index of the lexicographically least rotation (Booth's algorithm).

    >>> least_rotation_index((2, 1))
    1
    >>> least_rotation_index((1, 2))
    0
    """
    s = tuple(seq)
    if len(s) < 2:
        return 0
    doubled = s + s
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        sj = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and sj != doubled[k + i + 1]:
            if sj < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != doubled[k + i + 1]:
            if sj < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def canonical_form(a: ShiftedMatrixAlgebra) -> CanonicalForm:
    """The canonical multiplicity form deciding graded isomorphism.

    >>> str(canonical_form(ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), (3, 1, 2, 1))))
    'trivial k=2 mults=(2,1,1)'
    >>> str(canonical_form(ShiftedMatrixAlgebra.from_shifts(GradedBase.laurent(2), (0, 1, 2))))
    'cyclic m=2 mults=(1,2)'
    """
    if a.base.is_trivial:
        low = min(a.shifts)
        k = max(a.shifts) - low
        if k > _MAX_DENSE_MULTS:
            raise ValueError("shift spread too large to materialize a multiplicity vector")
        counts = [0] * (k + 1)
        for s in a.shifts:
            counts[s - low] += 1
        return TrivialForm(k, tuple(counts))
    m = a.base.period
    if m > _MAX_DENSE_MULTS:
        raise ValueError("period too large to materialize a multiplicity vector")
    counts = [0] * m
    for s in a.shifts:
        counts[s % m] += 1
    r = least_rotation_index(counts)
    return CyclicForm(m, tuple(counts[r:] + counts[:r]))


# --- certificate steps ---


@dataclass(frozen=True)
class Permute:
    """new_shifts[i] = old_shifts[image[i]], with 1-based positions."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError("image must be a permutation of 1..n")


@dataclass(frozen=True)
class GlobalShift:
    delta: int


@dataclass(frozen=True)
class EntryShift:
    index: int
    delta: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("entry index is 1-based")


Step = Union[Permute, GlobalShift, EntryShift]


def _check_step(step: Step, n: int, base: GradedBase, target: str):
    """Raise InvalidStepError unless `step` acts on `target`, of size n over base."""
    if isinstance(step, Permute):
        if len(step.image) != n:
            raise InvalidStepError(f"permutation of {len(step.image)} entries applied to {target}")
    elif isinstance(step, EntryShift):
        if step.index > n:
            raise InvalidStepError(f"entry index {step.index} out of range 1..{n}")
        if base.is_trivial:
            raise InvalidStepError("EntryShift needs an invertible element of nonzero degree; K has none")
        if step.delta % base.period != 0:
            raise InvalidStepError(f"EntryShift degree {step.delta} is not a multiple of the period {base.period}")
    elif not isinstance(step, GlobalShift):
        raise TypeError(f"not a certificate step: {step!r}")


def apply_step(shifts: Sequence[int], step: Step, base: GradedBase) -> tuple[int, ...]:
    """Act on a shift list by one elementary move.

    >>> apply_step((0, 1, 1), GlobalShift(1), GradedBase.laurent(2))
    (1, 2, 2)
    >>> apply_step((1, 2, 2), EntryShift(3, -2), GradedBase.laurent(2))
    (1, 2, 0)
    """
    shifts = tuple(shifts)
    _check_step(step, len(shifts), base, f"{len(shifts)} shifts")
    if isinstance(step, Permute):
        return tuple(shifts[i - 1] for i in step.image)
    if isinstance(step, GlobalShift):
        return tuple(s + step.delta for s in shifts)
    out = list(shifts)
    out[step.index - 1] += step.delta
    return tuple(out)


def apply_certificate(shifts: Sequence[int], steps: Iterable[Step], base: GradedBase) -> tuple[int, ...]:
    cur = tuple(shifts)
    for step in steps:
        cur = apply_step(cur, step, base)
    return cur


def inverse_step(step: Step) -> Step:
    if isinstance(step, Permute):
        inv = [0] * len(step.image)
        for pos, src in enumerate(step.image, 1):
            inv[src - 1] = pos
        return Permute(tuple(inv))
    if isinstance(step, GlobalShift):
        return GlobalShift(-step.delta)
    if isinstance(step, EntryShift):
        return EntryShift(step.index, -step.delta)
    raise TypeError(f"not a certificate step: {step!r}")


# --- the decision procedure ---


def is_graded_isomorphic(a: ShiftedMatrixAlgebra, b: ShiftedMatrixAlgebra) -> bool:
    """True iff the two algebras are graded isomorphic.

    Same base and size are necessary; then canonical forms decide.  Over K the
    comparison avoids materializing the dense form, which matters for widely
    spread shifts.
    """
    if a.base != b.base or a.n != b.n:
        return False
    if a.base.is_trivial:
        la, lb = min(a.shifts), min(b.shifts)
        return sorted(s - la for s in a.shifts) == sorted(s - lb for s in b.shifts)
    return canonical_form(a) == canonical_form(b)


def _matching_image(source: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    # source and target are equal as multisets; map each target slot to the
    # smallest unused source position holding the right value
    pool: dict[int, list[int]] = {}
    for j in range(len(source) - 1, -1, -1):
        pool.setdefault(source[j], []).append(j + 1)
    return tuple(pool[t].pop() for t in target)


def iso_certificate(a: ShiftedMatrixAlgebra, b: ShiftedMatrixAlgebra) -> list[Step]:
    """A step sequence carrying a.shifts exactly to b.shifts.

    Both sides are normalized to canonical order and one normalization is
    composed with the inverse of the other; no-op steps are dropped.  Raises
    NotIsomorphicError when no certificate exists.
    """
    if not is_graded_isomorphic(a, b):
        raise NotIsomorphicError(f"{a} and {b} are not graded isomorphic")
    if a.shifts == b.shifts:
        return []
    base = a.base
    steps: list[Step] = []
    cur = tuple(a.shifts)

    def push(step: Step):
        nonlocal cur
        if isinstance(step, GlobalShift) and step.delta == 0:
            return
        if isinstance(step, EntryShift) and step.delta == 0:
            return
        if isinstance(step, Permute) and step.image == tuple(range(1, len(cur) + 1)):
            return
        steps.append(step)
        cur = apply_step(cur, step, base)

    if base.is_trivial:
        push(GlobalShift(min(b.shifts) - min(a.shifts)))
        push(Permute(_matching_image(cur, b.shifts)))
    else:
        m = base.period
        for i, s in enumerate(cur, 1):
            push(EntryShift(i, (s % m) - s))
        target_residues = Counter(s % m for s in b.shifts)
        rotation = next(
            k for k in range(m) if Counter((s + k) % m for s in cur) == target_residues
        )
        push(GlobalShift(rotation))
        for i, s in enumerate(tuple(cur), 1):
            push(EntryShift(i, (s % m) - s))
        push(Permute(_matching_image(cur, tuple(s % m for s in b.shifts))))
        for i, (s, t) in enumerate(zip(tuple(cur), b.shifts), 1):
            push(EntryShift(i, t - s))
    if cur != tuple(b.shifts):
        raise AssertionError("certificate construction failed to land on the target shifts")
    return steps


def summand_key(a: ShiftedMatrixAlgebra):
    """A total-order key constant on graded isomorphism classes."""
    form = canonical_form(a)
    if isinstance(form, TrivialForm):
        return (0, 0, a.n, form.k, form.mults)
    return (1, form.period, a.n, 0, form.mults)


def direct_sum_iso(r: DirectSumAlgebra, s: DirectSumAlgebra) -> bool:
    """Graded isomorphism of direct sums: match summands up to reordering."""
    if len(r.summands) != len(s.summands):
        return False
    return sorted(map(summand_key, r.summands)) == sorted(map(summand_key, s.summands))
