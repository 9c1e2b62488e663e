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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import index, lt, ne, sub
from typing import Union

from .errors import InvalidStepError, NotIsomorphicError

# canonical_form alone materializes dense multiplicity vectors; it refuses one
# of more than this many entries (over K, a spread of this or more)
_MAX_DENSE_MULTS = 5_000_000
# the one limit on anything that holds an object per shift or per path
_MAX_LISTED = 1_000_000


def _require_listable(n: int):
    if n > _MAX_LISTED:
        raise ValueError(f"{n} shifts or paths are too many to list one by one (limit {_MAX_LISTED})")


def _require_ints(what: str, values: Sequence) -> None:
    """Raise ValueError naming the first of `values` that is not an int, or
    is a bool."""
    if not set(map(type, values)) <= {int}:
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{what} must be an int, not {value!r}")


@dataclass(frozen=True)
class GradedBase:
    """The graded coefficient ring: the field K (period None) or the Laurent
    ring K[x^m, x^-m] whose support is the multiples of m."""

    period: int | None = None

    def __post_init__(self):
        if self.period is not None:
            if type(self.period) is not int:
                _require_ints("a Laurent period", (self.period,))
            if self.period < 1:
                raise ValueError("Laurent period must be a positive integer")

    @classmethod
    def trivial(cls) -> "GradedBase":
        """K; every call returns the same object, as the base is immutable."""
        return _K

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


_K = GradedBase(None)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls holding `fields`, built
    without running its constructor's checks."""
    obj = cls.__new__(cls)
    vars(obj).update(fields)
    return obj


@dataclass(frozen=True, init=False, eq=False, repr=False)
class ShiftedMatrixAlgebra:
    """M_n(base) with suspension shifts g_1..g_n attached to the rows, held
    as runs like the expression syntax count(shift): two parallel int
    columns, each run's shift and its count.  Runs are normalised (positive
    counts, adjacent shifts distinct), so equality is that of the shift
    lists; n is the sum of the counts.

    Every algebra is built by `_from_columns`, from a shift column and a
    count column, equal neighbouring shifts merged into one run: the
    constructor (after checking its (shift, count) pairs), `from_shifts`,
    unpickling, the parser, represent and both corners.  `runs` lists the
    pairs again on each call; hashing, repr and pickling read it.
    Equality, hashing, repr and pickling are those of the pair (base, runs).

    >>> a = ShiftedMatrixAlgebra(GradedBase.trivial(), [(0, 1), (2, 2), (2, 1)])
    >>> a.runs, a.n, a.shifts, str(a)
    (((0, 1), (2, 3)), 4, (0, 2, 2, 2), 'M4(K)(0,2,2,2)')
    >>> str(ShiftedMatrixAlgebra(GradedBase.laurent(2), [(0, 1), (1, 1_000_000)]))
    'M1000001(K[x^2])(1(0),1000000(1))'
    """

    base: GradedBase
    n: int

    def __init__(self, base: GradedBase, runs: Iterable[tuple[int, int]]):
        columns = tuple(zip(*runs, strict=True))
        if not columns:
            raise ValueError("an algebra needs at least one run")
        shifts, counts = columns
        _require_ints("a run's shift", shifts)
        _require_ints("a run's count", counts)
        if min(counts) < 1:
            raise ValueError("every run needs a positive count")
        vars(self).update(vars(self._from_columns(base, shifts, counts)))

    @classmethod
    def _from_columns(cls, base: GradedBase, shifts: Sequence[int], counts: Sequence[int]) -> "ShiftedMatrixAlgebra":
        """From a nonempty shift column and its column of positive counts,
        equal neighbouring shifts merged into one run; n is the sum of the
        counts.  Columns already normal cost one neighbour scan, or two over
        K when they start at 0 but do not increase.

        Two class forms come free and are kept at once: over K, shifts that
        increase from 0, as every sink's summand has, are their own form,
        as the scan finds; over K[x^1] every shift has the one residue, as
        in every loop's summand."""
        own_form = base.period is None and not shifts[0] and all(map(lt, shifts, islice(shifts, 1, None)))
        if own_form or all(map(ne, islice(shifts, 1, None), shifts)):
            shifts, counts = tuple(shifts), tuple(counts)
        else:
            merged_shifts, merged_counts, last = [], [], None
            for shift, count in zip(shifts, counts):
                if shift == last:
                    merged_counts[-1] += count
                else:
                    merged_shifts.append(shift)
                    merged_counts.append(count)
                    last = shift
            shifts, counts = tuple(merged_shifts), tuple(merged_counts)
        algebra = cls.__new__(cls)
        vars(algebra).update(base=base, n=sum(counts), _run_shifts=shifts, _run_counts=counts)
        if base.period == 1:
            vars(algebra)["_class_form"] = 0, (-1,), (algebra.n,)
        elif own_form:
            vars(algebra)["_class_form"] = 0, shifts, counts
        return algebra

    @classmethod
    def from_shifts(cls, base: GradedBase, shifts: Iterable[int]) -> "ShiftedMatrixAlgebra":
        shifts = tuple(shifts)
        if not shifts:
            raise ValueError("an algebra needs at least one run")
        _require_ints("a shift", shifts)
        return cls._from_columns(base, shifts, (1,) * len(shifts))

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """The (shift, count) pair of each run."""
        return tuple(zip(self._run_shifts, self._run_counts))

    @cached_property
    def shifts(self) -> tuple[int, ...]:
        """The shift list; raises ValueError past 1,000,000 shifts."""
        _require_listable(self.n)
        if self.n == len(self._run_shifts):  # every run is a single shift
            return self._run_shifts
        return tuple(chain.from_iterable(map(repeat, self._run_shifts, self._run_counts)))

    @cached_property
    def _class_form(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """The sparse invariant of the graded isomorphism class as (start,
        keys, counts), two parallel int columns, computed once per algebra
        unless _from_columns kept it at construction.

        Over K: start is the least shift, keys the distinct shifts minus
        start in increasing order and counts their multiplicities.  Over
        K[x^m]: each occupied residue is encoded as -gap from the previous
        occupied residue and its count; the columns are the least rotation
        of that sequence of pairs, which orders like the least rotation of
        the dense residue counts, and start is the residue where its leading
        gap begins.
        """
        m, shifts, counts = self.base.period, self._run_shifts, self._run_counts
        if m is None and all(map(lt, shifts, islice(shifts, 1, None))):
            # increasing runs, as every represented summand has: no tally
            start = shifts[0]
            return start, shifts if start == 0 else tuple(map(start.__rsub__, shifts)), counts
        keys = shifts if m is None else [s % m for s in shifts]
        tally = Counter(keys)  # one count per run, then each longer run's extra count
        if self.n > len(keys):
            for key, count in zip(keys, counts):
                if count > 1:
                    tally[key] += count - 1
        keys = sorted(tally)
        if m is None:
            return keys[0], tuple(map(keys[0].__rsub__, keys)), tuple(map(tally.__getitem__, keys))
        gaps, counts = _neg_gaps(keys, m), list(map(tally.__getitem__, keys))
        # the rotation compares (-gap, count) pairs, one per occupied residue
        r = _least_rotation_index(list(zip(gaps, counts))) if len(keys) > 1 else 0
        return (keys[r - 1] + 1) % m, tuple(gaps[r:] + gaps[:r]), tuple(counts[r:] + counts[:r])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self._run_shifts, self._run_counts) == (other.base, other._run_shifts, other._run_counts)

    def __hash__(self):
        return hash((self.base, self.runs))

    def __repr__(self):
        return f"{type(self).__qualname__}(base={self.base!r}, runs={self.runs!r})"

    def __getstate__(self):
        # the fields only, not what the cached properties hold
        return {"base": self.base, "runs": self.runs, "n": self.n}

    def __setstate__(self, state):
        shifts, counts = zip(*state["runs"])
        vars(self).update(vars(self._from_columns(state["base"], shifts, counts)))

    def __str__(self):
        if self.n <= _MAX_LISTED:
            items = self.shifts
        else:
            items = map("{1}({0})".format, self._run_shifts, self._run_counts)
        return f"M{self.n}({self.base})({','.join(map(str, items))})"


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
        # the dense vector is at its least rotation iff it ends in a nonzero count
        # and its gap encoding, from its first occupied residue, is at its own
        occupied = [r for r, c in enumerate(self.mults) if c]
        encoded = list(zip(_neg_gaps(occupied, self.period), map(self.mults.__getitem__, occupied)))
        r = _least_rotation_index(encoded)
        if self.mults[-1] == 0 or encoded[r:] + encoded[:r] != encoded:
            raise ValueError("mults must be stored at their least rotation")

    def __str__(self):
        return f"cyclic m={self.period} mults=({','.join(str(c) for c in self.mults)})"


CanonicalForm = Union[TrivialForm, CyclicForm]


def _least_rotation_index(seq: Sequence) -> int:
    """Index of the first lexicographically least rotation of a sequence of
    mutually comparable items, such as ints or the (-gap, count) pairs of a
    class form.

    A least rotation starts at a least item, so when that item occurs once
    its index is the answer; otherwise Booth's algorithm finds it.

    >>> _least_rotation_index((2, 1))
    1
    >>> _least_rotation_index((1, 2))
    0
    >>> _least_rotation_index(((-3, 1), (-1, 2), (-3, 1), (-1, 1)))
    2
    """
    s = tuple(seq)
    if len(s) < 2:
        return 0
    least = min(s)
    if s.count(least) == 1:
        return s.index(least)
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


def _neg_gaps(occupied: list[int], m: int) -> list[int]:
    """Minus the gap from the previous occupied residue, for each residue in
    the ascending list `occupied`, cyclically modulo m."""
    return list(map(sub, [occupied[-1] - m, *occupied], occupied))


def _nonzero_mults(a: ShiftedMatrixAlgebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions of the nonzero entries of a's canonical multiplicity
    vector, increasing, and those entries: two parallel columns."""
    _, keys, counts = a._class_form
    if a.base.is_trivial:
        return keys, counts
    # each key is minus the gap from the previous position, starting at -1
    return tuple(accumulate(keys, sub, initial=-1))[1:], counts


def canonical_form(a: ShiftedMatrixAlgebra) -> CanonicalForm:
    """The canonical multiplicity form, expanded from the sparse class form.

    The one dense path: raises ValueError when the vector would have more than
    5,000,000 entries, which is a shift spread of 5,000,000 or more over K, or
    a period past 5,000,000.  Isomorphism, summand keys and certificates have
    no such limit.

    >>> str(canonical_form(ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), (3, 1, 2, 1))))
    'trivial k=2 mults=(2,1,1)'
    >>> str(canonical_form(ShiftedMatrixAlgebra.from_shifts(GradedBase.laurent(2), (0, 1, 2))))
    'cyclic m=2 mults=(1,2)'
    """
    trivial = a.base.is_trivial
    positions, counts = _nonzero_mults(a)
    size = positions[-1] + 1 if trivial else a.base.period
    if size > _MAX_DENSE_MULTS:
        what = "shift spread" if trivial else "period"
        raise ValueError(f"{what} too large to materialize a multiplicity vector")
    if len(counts) < size:  # some entry is zero
        dense = [0] * size
        for position, count in zip(positions, counts):
            dense[position] = count
        counts = tuple(dense)
    # the class form makes a valid form, so its checks are skipped
    if trivial:
        return _unchecked(TrivialForm, k=size - 1, mults=counts)
    return _unchecked(CyclicForm, period=size, mults=counts)


# --- certificate steps ---


@dataclass(frozen=True)
class Permute:
    """new_shifts[i] = old_shifts[image[i]], with 1-based positions."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        _require_ints("a permutation entry", self.image)
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError("image must be a permutation of 1..n")


@dataclass(frozen=True)
class GlobalShift:
    delta: int

    def __post_init__(self):
        if type(self.delta) is not int:
            _require_ints("a global shift", (self.delta,))


@dataclass(frozen=True)
class EntryShift:
    index: int
    delta: int

    def __post_init__(self):
        if type(self.index) is not int or type(self.delta) is not int:
            _require_ints("an entry index", (self.index,))
            _require_ints("an entry shift's degree", (self.delta,))
        if self.index < 1:
            raise ValueError("entry index is 1-based")


Step = Union[Permute, GlobalShift, EntryShift]


class _Certificate(Sequence):
    """A certificate held as runs: each maximal run of EntryShifts as two int
    columns, indices and deltas, and every other step as itself.

    It is a read-only sequence of its steps: len counts steps, iteration and
    indexing build the EntryShift objects, and it equals (and prints as) the
    list of its steps.  Any iterable of steps becomes one through the
    constructor; _add and _add_entries append to one that the library builds.
    `runs` holds (EntryShift, (indices, deltas)) for a run of EntryShifts and
    (type(step), step) for any other item, which need not be a step at all.

    >>> cert = _Certificate([GlobalShift(1), EntryShift(3, -2), EntryShift(1, 4)])
    >>> len(cert), cert.runs[1][1]
    (3, ([3, 1], [-2, 4]))
    >>> cert
    [GlobalShift(delta=1), EntryShift(index=3, delta=-2), EntryShift(index=1, delta=4)]
    """

    __slots__ = ("runs", "_len")
    __hash__ = None  # equal to a list, which has no hash

    def __init__(self, steps: Iterable = ()):
        self.runs: list[tuple[type, object]] = []
        self._len = 0
        for step in steps:
            if type(step) is EntryShift:
                self._add_entries([step.index], [step.delta])
            else:
                self._add(step)

    @classmethod
    def of(cls, steps: Iterable) -> "_Certificate":
        """`steps` itself when it is already a certificate, else one built from it."""
        return steps if type(steps) is cls else cls(steps)

    def _add(self, step) -> None:
        self.runs.append((type(step), step))
        self._len += 1

    def _add_entries(self, indices: list[int], deltas: list[int]) -> None:
        """Append EntryShift(indices[k], deltas[k]) for each k, indices at
        least 1: the lists become a new run's columns, or extend the last
        run's when it is a run of EntryShifts."""
        if not indices:
            return
        if self.runs and self.runs[-1][0] is EntryShift:
            last_indices, last_deltas = self.runs[-1][1]
            last_indices += indices
            last_deltas += deltas
        else:
            self.runs.append((EntryShift, (indices, deltas)))
        self._len += len(indices)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for kind, item in self.runs:
            if kind is EntryShift:
                yield from map(EntryShift, *item)
            else:
                yield item

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self)[k]
        k = index(k)
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("list index out of range")
        for kind, item in self.runs:
            size = len(item[0]) if kind is EntryShift else 1
            if k < size:
                return EntryShift(item[0][k], item[1][k]) if kind is EntryShift else item
            k -= size

    def __eq__(self, other):
        if isinstance(other, (list, _Certificate)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return repr(list(self))


def _check_entries(indices: Sequence[int], deltas: Sequence[int], n: int, base: GradedBase) -> None:
    """Raise InvalidStepError for the first EntryShift(indices[k], deltas[k])
    that cannot act on n shifts over base: its index past n, a base with no
    invertible element of nonzero degree, or a degree off the period."""
    m = base.period
    if m is not None and max(indices) <= n and not any(map(m.__rmod__, deltas)):
        return
    for i, d in zip(indices, deltas):
        if i > n:
            raise InvalidStepError(f"entry index {i} out of range 1..{n}")
        if m is None:
            raise InvalidStepError("EntryShift needs an invertible element of nonzero degree; K has none")
        if d % m != 0:
            raise InvalidStepError(f"EntryShift degree {d} is not a multiple of the period {m}")


def apply_certificate(shifts: Sequence[int], steps: Iterable[Step], base: GradedBase) -> tuple[int, ...]:
    """Act on a shift list by a sequence of elementary moves, validating each
    step, or each run of EntryShifts, before it acts; an EntryShift costs O(1).
    This is the one place a step is checked: InvalidStepError for a step that
    cannot act on these shifts over base, TypeError for an item that is not a
    step.  conjugate_by_step takes its new shifts from here.

    >>> apply_certificate((0, 1, 1), (GlobalShift(1),), GradedBase.laurent(2))
    (1, 2, 2)
    >>> apply_certificate((0, 1, 1), (GlobalShift(1), EntryShift(3, -2)), GradedBase.laurent(2))
    (1, 2, 0)
    """
    _require_listable(len(shifts))
    cur = list(shifts)
    n = len(cur)
    for kind, item in _Certificate.of(steps).runs:
        if kind is EntryShift:
            indices, deltas = item
            _check_entries(indices, deltas, n, base)
            for i, d in zip(indices, deltas):
                cur[i - 1] += d
        elif kind is Permute:
            if len(item.image) != n:
                raise InvalidStepError(f"permutation of {len(item.image)} entries applied to {n} shifts")
            cur = [cur[i - 1] for i in item.image]
        elif kind is GlobalShift:
            cur = [s + item.delta for s in cur]
        else:
            raise TypeError(f"not a certificate step: {item!r}")
    return tuple(cur)


# --- the decision procedure ---


def is_graded_isomorphic(a: ShiftedMatrixAlgebra, b: ShiftedMatrixAlgebra) -> bool:
    """True iff the two algebras are graded isomorphic: same base, same size
    and same sparse class form."""
    return _class_key(a) == _class_key(b)


def _matching_image(source: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    # source and target are equal as multisets; map each target slot to the
    # smallest unused source position holding the right value: the k-th slot
    # of a value, in a stable sort of target, takes its k-th position in source
    image = [0] * len(target)
    by_value = sorted(range(len(source)), key=source.__getitem__)
    for slot, j in zip(sorted(range(len(target)), key=target.__getitem__), by_value):
        image[slot] = j + 1
    return tuple(image)


def iso_certificate(a: ShiftedMatrixAlgebra, b: ShiftedMatrixAlgebra) -> Sequence[Step]:
    """A step sequence carrying a.shifts exactly to b.shifts, of at most n+2
    steps: a GlobalShift that aligns the class forms' starts (modulo the
    period over a Laurent base), one Permute that matches shifts (residues
    over a Laurent base), then an EntryShift for each remaining nonzero gap.
    No-op steps are dropped, so over K it is at most [GlobalShift, Permute].
    Raises NotIsomorphicError when no certificate exists.

    The sequence is read-only and equals the list of its steps; its
    EntryShifts are held as one run of index and delta columns.
    """
    (start_a, *form_a), (start_b, *form_b) = a._class_form, b._class_form
    if (a.base, a.n, form_a) != (b.base, b.n, form_b):
        raise NotIsomorphicError(f"{a} and {b} are not graded isomorphic")
    m = a.base.period
    delta = start_b - start_a if m is None else (start_b - start_a) % m
    moved = [s + delta for s in a.shifts]
    if m is None:
        image = _matching_image(moved, b.shifts)
    else:  # GlobalShift and Permute match residues over K[x^m]
        image = _matching_image([s % m for s in moved], [t % m for t in b.shifts])
    placed = [moved[i - 1] for i in image]
    steps = _Certificate()
    if delta:
        steps._add(GlobalShift(delta))
    if image != tuple(range(1, a.n + 1)):
        # a bijection by construction, so Permute's check is skipped
        steps._add(_unchecked(Permute, image=image))
    gaps = list(map(sub, b.shifts, placed))
    steps._add_entries(list(compress(range(1, a.n + 1), gaps)), list(filter(None, gaps)))
    if apply_certificate(a.shifts, steps, a.base) != b.shifts:
        raise AssertionError("certificate construction failed to land on the target shifts")
    return steps


def _class_key(a: ShiftedMatrixAlgebra):
    """A total-order key constant on graded isomorphism classes, and equal
    only within one: (period or 0, n, the class form's two columns)."""
    _, keys, counts = a._class_form
    return (a.base.period or 0, a.n, keys, counts)


def direct_sum_iso(r: DirectSumAlgebra, s: DirectSumAlgebra) -> bool:
    """Graded isomorphism of direct sums: match summands up to reordering."""
    if len(r.summands) != len(s.summands):
        return False
    return sorted(map(_class_key, r.summands)) == sorted(map(_class_key, s.summands))
