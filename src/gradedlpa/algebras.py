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
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import index, lt, ne, sub
from typing import Union

from .errors import InvalidStepError, NotIsomorphicError

# the one limit on anything that holds an object per shift, path or vector entry
_MAX_LISTED = 1_000_000


def _require_listable(n: int, what: str = "shifts or paths"):
    if n > _MAX_LISTED:
        raise ValueError(f"{n} {what} are too many to list one by one (limit {_MAX_LISTED})")


def _require_ints(what: str, values: Sequence) -> None:
    """Raise ValueError naming the first of `values` that is not an int, or
    is a bool."""
    if not set(map(type, values)) <= {int}:
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{what} must be an int, not {value!r}")


class _Record:
    """An immutable record: the fields its class's __match_args__ names,
    held in the instance dict, where each subclass's __init__ writes them
    after its checks and where _unchecked, cached_property and unpickling
    write too.  Equality (same class only), hashing and repr are those of
    the field tuple, as a frozen dataclass's are, and no field can be
    assigned or deleted.  Fields are read as attributes, so a
    cached_property can stand for one until it is first read.

    >>> GlobalShift(2), GlobalShift(2) == GlobalShift(2), hash(GlobalShift(2)) == hash((2,))
    (GlobalShift(delta=2), True, True)
    """

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _unchecked(cls, **fields):
    """An instance of the record class cls holding `fields`, built without
    running its constructor's checks."""
    obj = cls.__new__(cls)
    vars(obj).update(fields)
    return obj


class GradedBase(_Record):
    """The graded coefficient ring: the field K (period None) or the Laurent
    ring K[x^m, x^-m] whose support is the multiples of m."""

    __match_args__ = ("period",)

    def __init__(self, period: int | None = None):
        if period is not None:
            if type(period) is not int:
                _require_ints("a Laurent period", (period,))
            if period < 1:
                raise ValueError("Laurent period must be a positive integer")
        vars(self)["period"] = period

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


class ShiftedMatrixAlgebra(_Record):
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

    __match_args__ = ("base", "n")
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
        K[x^m]: `_least_rotation` of the occupied residues and their counts,
        the one routine that also decides CyclicForm's check.
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
        return _least_rotation(keys, list(map(tally.__getitem__, keys)), m)

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
            items = map(repr, self.shifts)  # the str of an int is its repr
        else:
            items = map("{1}({0})".format, self._run_shifts, self._run_counts)
        return f"M{self.n}({self.base})({','.join(items)})"


class DirectSumAlgebra(_Record):
    """A finite, nonempty direct sum of shifted matrix algebras."""

    __match_args__ = ("summands",)

    def __init__(self, summands: Iterable[ShiftedMatrixAlgebra]):
        summands = tuple(summands)
        if not summands:
            raise ValueError("a direct sum needs at least one summand")
        vars(self)["summands"] = summands

    def __str__(self):
        return " (+) ".join(str(a) for a in self.summands)


# --- canonical forms ---


class _Form(_Record):
    """A canonical form held as two int columns: the positions of its
    vector's nonzero entries, increasing, the last at the vector's end, and
    those entries.  Up to 1,000,000 entries, `mults` lists the vector and
    equality, hashing, repr and str are those of (k | period, mults); past
    that, `mults` raises ValueError and the rest read the (position, count)
    pairs, which str prints as position:count."""

    @property
    def _listable(self) -> bool:
        return self._positions[-1] < _MAX_LISTED

    @property
    def mults(self) -> tuple[int, ...]:
        """The dense multiplicity vector; raises ValueError past 1,000,000 entries."""
        size = self._positions[-1] + 1
        _require_listable(size, "multiplicities")
        if len(self._counts) == size:  # no zero entry
            return self._counts
        dense = [0] * size
        for position, count in zip(self._positions, self._counts):
            dense[position] = count
        return tuple(dense)

    def _fields(self) -> tuple:
        mults = self.mults if self._listable else tuple(zip(self._positions, self._counts))
        return vars(self)[self.__match_args__[0]], mults

    def __str__(self):
        size, mults = self._fields()
        if self._listable:
            return f"{self._head}={size} mults=({','.join(map(repr, mults))})"
        return f"{self._head}={size} mults={{{','.join(map('{}:{}'.format, self._positions, self._counts))}}}"


class TrivialForm(_Form):
    """Canonical form over K: shifts normalized to start at 0 and sorted.

    k is the largest normalized shift; mults[i] counts occurrences of i, so
    mults has k+1 entries with mults[0] >= 1 and mults[k] >= 1.
    """

    __match_args__ = ("k", "mults")
    _head = "trivial k"

    def __init__(self, k: int, mults: Iterable[int]):
        mults = tuple(mults)
        _require_ints("a form's k or count", (k, *mults))
        if k < 0 or len(mults) != k + 1:
            raise ValueError("mults must list l_0..l_k")
        if mults[0] < 1 or mults[-1] < 1 or any(c < 0 for c in mults):
            raise ValueError("l_0 and l_k must be positive, all counts nonnegative")
        vars(self).update(k=k, _positions=tuple(compress(range(k + 1), mults)), _counts=tuple(filter(None, mults)))


class CyclicForm(_Form):
    """Canonical form over K[x^m, x^-m]: residue multiplicities mod m, stored
    at their lexicographically least rotation, which ends in a nonzero count.

    >>> str(CyclicForm(4, (0, 1, 2, 1))), str(CyclicForm(2_000_000, (*[0] * 1_999_998, 2, 1)))
    ('cyclic m=4 mults=(0,1,2,1)', 'cyclic m=2000000 mults={1999998:2,1999999:1}')
    """

    __match_args__ = ("period", "mults")
    _head = "cyclic m"

    def __init__(self, period: int, mults: Iterable[int]):
        mults = tuple(mults)
        _require_ints("a form's period or count", (period, *mults))
        if period < 1 or len(mults) != period:
            raise ValueError("mults must list l_0..l_{m-1}")
        if any(c < 0 for c in mults) or sum(mults) < 1:
            raise ValueError("counts must be nonnegative and not all zero")
        # the dense vector is at its least rotation iff its class form starts at
        # residue 0: it ends in a nonzero count and its pairs are at their own
        occupied = [r for r, c in enumerate(mults) if c]
        if _least_rotation(occupied, [mults[r] for r in occupied], period)[0]:
            raise ValueError("mults must be stored at their least rotation")
        vars(self).update(period=period, _positions=tuple(occupied), _counts=tuple(filter(None, mults)))


def _least_rotation_index(seq: Sequence) -> int:
    """Index of the first lexicographically least rotation of a sequence of
    mutually comparable items, such as ints or the (-gap, count) pairs of a
    class form.

    A least rotation starts at a least item, so when that item occurs once
    its index is the answer.  Otherwise a two-pointer minimal-rotation scan
    over candidate starts i and j finds it in O(n) time and O(1) extra space:
    where the rotations at i and j first differ, k items in, neither the
    larger one's start nor its next k items can start a least one.

    >>> _least_rotation_index((2, 1))
    1
    >>> _least_rotation_index((1, 2))
    0
    >>> _least_rotation_index(((-3, 1), (-1, 2), (-3, 1), (-1, 1)))
    2
    """
    s = tuple(seq)
    n = len(s)
    if n < 2:
        return 0
    least = min(s)
    if s.count(least) == 1:
        return s.index(least)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[(i + k) % n], s[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _least_rotation(residues: list[int], counts: list[int], m: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The class form (start, gaps, counts) over K[x^m] of the ascending
    occupied residues and their counts: the first least rotation of the pairs
    (minus the gap from the previous occupied residue, count), which orders
    like the least rotation of the dense counts, and the residue where its
    leading gap begins.  A dense vector is at its least rotation iff start is 0.

    >>> _least_rotation([0, 1, 2, 3], [2, 1, 2, 1], 4)
    (1, (-1, -1, -1, -1), (1, 2, 1, 2))
    """
    gaps = list(map(sub, [residues[-1] - m, *residues], residues))
    r = _least_rotation_index(list(zip(gaps, counts))) if len(residues) > 1 else 0
    return (residues[r - 1] + 1) % m, tuple(gaps[r:] + gaps[:r]), tuple(counts[r:] + counts[:r])


def canonical_form(a: ShiftedMatrixAlgebra) -> TrivialForm | CyclicForm:
    """The canonical multiplicity form, read off the sparse class form in
    time linear in its columns, at any shift spread or period.

    >>> str(canonical_form(ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), (3, 1, 2, 1))))
    'trivial k=2 mults=(2,1,1)'
    >>> str(canonical_form(ShiftedMatrixAlgebra.from_shifts(GradedBase.laurent(2), (0, 1, 2))))
    'cyclic m=2 mults=(1,2)'
    >>> str(canonical_form(ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), (0, 2**32))))
    'trivial k=4294967296 mults={0:1,4294967296:1}'
    """
    _, keys, counts = a._class_form
    # the class form makes a valid form, so its checks are skipped
    if a.base.is_trivial:
        return _unchecked(TrivialForm, k=keys[-1], _positions=keys, _counts=counts)
    # each key is minus the gap from the previous position, starting at -1
    positions = tuple(accumulate(keys, sub, initial=-1))[1:]
    return _unchecked(CyclicForm, period=a.base.period, _positions=positions, _counts=counts)


# --- certificate steps ---


class Permute(_Record):
    """new_shifts[i] = old_shifts[image[i]], with 1-based positions."""

    __match_args__ = ("image",)

    def __init__(self, image: Iterable[int]):
        image = tuple(image)
        _require_ints("a permutation entry", image)
        # n distinct ints in 1..n are a permutation of 1..n
        n = len(image)
        if image and (min(image) < 1 or max(image) > n or len(set(image)) != n):
            raise ValueError("image must be a permutation of 1..n")
        vars(self)["image"] = image


class GlobalShift(_Record):
    """Add delta to every shift."""

    __match_args__ = ("delta",)

    def __init__(self, delta: int):
        if type(delta) is not int:
            _require_ints("a global shift", (delta,))
        vars(self)["delta"] = delta


class EntryShift(_Record):
    """Add delta to the shift at the 1-based position index."""

    __match_args__ = ("index", "delta")

    def __init__(self, index: int, delta: int):
        if type(index) is not int or type(delta) is not int:
            _require_ints("an entry index", (index,))
            _require_ints("an entry shift's degree", (delta,))
        if index < 1:
            raise ValueError("entry index is 1-based")
        vars(self).update(index=index, delta=delta)


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
