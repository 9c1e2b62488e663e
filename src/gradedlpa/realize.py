"""Which shifted matrix algebras arise from Leavitt path algebras, and
witness graphs for the ones that do.

Over K the multiplicity vector must start with l_0 = 1 (only the trivial path
has length 0) and have no gaps.  Over K[x^m, x^-m] every residue class mod m
must occur.  A direct sum is realizable iff each summand is: take the
disjoint union of the witness graphs.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat

from .algebras import DirectSumAlgebra, ShiftedMatrixAlgebra, _Record, _require_listable
from .errors import NotRealizableError
from .graphs import DirectedGraph


class Verdict(_Record):
    """Outcome of a realizability test on a single matrix algebra.

    On failure, failing_index is the first violated position in the natural
    multiplicity list: the reduced shift value over K, the residue class over
    a Laurent base.
    """

    __match_args__ = ("ok", "failing_index", "reason")

    def __init__(self, ok: bool, failing_index: int | None = None, reason: str | None = None):
        vars(self).update(ok=ok, failing_index=failing_index, reason=reason)

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "yes" if self.ok else f"no: {self.reason}"


_YES = Verdict(True)


class SumVerdict(_Record):
    """Outcome for a direct sum; failures list (1-based summand, verdict)."""

    __match_args__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[tuple[int, Verdict], ...] = ()):
        vars(self).update(ok=ok, failures=failures)

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "yes"
        return "; ".join(f"summand {pos}: {v.reason}" for pos, v in self.failures)


def is_realizable(a: ShiftedMatrixAlgebra) -> Verdict:
    """Decide whether `a` is graded isomorphic to some L_K(E).

    Depends only on the graded isomorphism class of `a`.

    >>> from gradedlpa.algebras import GradedBase
    >>> print(is_realizable(ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), (5, 6, 6))))
    yes
    >>> print(is_realizable(ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), (0, 2))))
    no: l_1 = 0: a path of length 2 to the sink forces one of length 1
    >>> print(is_realizable(ShiftedMatrixAlgebra(GradedBase.laurent(3), [(0, 10**30), (4, 1)])))
    no: l_2 = 0: no path of length = 2 (mod 3)
    """
    _, keys, counts = a._class_form
    m = a.base.period
    if m is None:
        # keys: the distinct reduced shifts, increasing from 0
        if counts[0] != 1:
            return Verdict(False, 0, f"l_0 = {counts[0]}, but only the trivial path has length 0")
        if keys[-1] == len(keys) - 1:  # no gap
            return _YES
        gap = next(i for i, key in enumerate(keys) if key != i)
        return Verdict(
            False, gap, f"l_{gap} = 0: a path of length {keys[gap]} to the sink forces one of length {gap}"
        )
    # one key per occupied residue
    if len(keys) == m:
        return _YES
    present = set(map(m.__rmod__, a._run_shifts))
    missing = next(i for i in range(m) if i not in present)
    return Verdict(
        False, missing, f"l_{missing} = 0: no path of length = {missing} (mod {m})"
    )


def is_realizable_sum(r: DirectSumAlgebra) -> SumVerdict:
    """A direct sum is realizable iff every summand is; lists all failures."""
    failures = []
    for pos, summand in enumerate(r.summands, 1):
        verdict = is_realizable(summand)
        if not verdict:
            failures.append((pos, verdict))
    return SumVerdict(not failures, tuple(failures))


def synthesize(a: ShiftedMatrixAlgebra) -> DirectedGraph:
    """A finite no-exit graph whose Leavitt path algebra represents `a`.

    Built from the class form, so graded isomorphic inputs synthesize the
    same graph, straight into its id columns.  Raises NotRealizableError
    (with the Verdict) otherwise, and ValueError past 1,000,000 shifts, one
    vertex each.
    """
    verdict = is_realizable(a)
    if not verdict:
        raise NotRealizableError(verdict)
    return _witness_graph([(a, "")])


def synthesize_sum(r: DirectSumAlgebra) -> DirectedGraph:
    """Disjoint union of witness graphs, vertex ids namespaced per summand,
    built as one graph's id columns.  Raises NotRealizableError (with the
    SumVerdict) unless every summand is realizable, then ValueError for the
    first summand past 1,000,000 shifts."""
    verdict = is_realizable_sum(r)
    if not verdict:
        raise NotRealizableError(verdict)
    return _witness_graph([(a, f"s{pos}_") for pos, a in enumerate(r.summands, 1)])


def _witness_graph(parts: list[tuple[ShiftedMatrixAlgebra, str]]) -> DirectedGraph:
    """The disjoint union of the witness graphs of realizable algebras, each
    one's ids prefixed with its prefix, built straight into the graph's id
    columns.

    Each witness reads its algebra's sparse class form: a realizable algebra
    has no zero multiplicity, so the form's counts are the whole canonical
    vector, in its order.  Each witness is named once per vertex, in the
    order its edge list mentions them, with edges e1, e2, ... in that list's
    order.  A witness with no edge, the one vertex of M1(K), follows every
    other vertex.
    """
    names: list[str] = []
    eids: list[str] = []
    sources: list[int] = []
    ranges: list[int] = []
    lone: list[str] = []
    for a, p in parts:
        _require_listable(a.n)
        mults, m = a._class_form[2], a.base.period
        base, first_edge = len(names), len(sources)
        if m is not None:
            # the cycle v0 <- v1 <- ... <- v_{m-1} <- v0, walked toward v0,
            # mentions v1, v0, v2, ..., v_{m-1}; that order is its own
            # inverse, so v_i's id is ids[i]
            order = [1, 0, *range(2, m)] if m > 1 else [0]
            ids = [base + i for i in order]
            names += [f"{p}v{i}" for i in order]
            sources += ids[1:] + ids[:1]
            ranges += ids
            # l_i - 1 extra branches of length i into the cycle, residue 0
            # last: a branch v_i_j ends at v_{i-1}, which for i = 1, ..., m-1, 0
            # is ids[0], ..., ids[m-1]
            residues = [*range(1, m), 0]
            names += [f"{p}v{i}_{j}" for i in residues for j in range(1, mults[i])]
            ranges += chain.from_iterable(map(repeat, ids, [mults[i] - 1 for i in residues]))
            sources += range(base + m, len(names))
        elif len(mults) == 1:
            lone.append(f"{p}v0_1")
        else:
            # over K: a layered tree onto the single sink v0_1, whose edges
            # mention v1_1, v0_1, then the other layer vertices in order
            k = len(mults) - 1
            layers = [f"{p}v{i}_{j}" for i in range(1, k + 1) for j in range(1, mults[i] + 1)]
            layers.insert(1, f"{p}v0_1")
            names += layers
            sources.append(base)
            sources += range(base + 2, len(names))
            # layer i ends at v_{i-1}_1: v0_1, v1_1, then each layer's first
            heads = [base + 1, base, *accumulate(mults[2:k], initial=base + 1 + mults[1])]
            ranges += chain.from_iterable(map(repeat, heads, mults[1:]))
        eids += [f"{p}e{pos}" for pos in range(1, len(sources) - first_edge + 1)]
    names += lone
    return DirectedGraph._from_columns(dict(zip(names, range(len(names)))), eids, sources, ranges)
