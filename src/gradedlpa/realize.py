"""Which shifted matrix algebras arise from Leavitt path algebras, and
witness graphs for the ones that do.

Over K the multiplicity vector must start with l_0 = 1 (only the trivial path
has length 0) and have no gaps.  Over K[x^m, x^-m] every residue class mod m
must occur.  A direct sum is realizable iff each summand is: take the
disjoint union of the witness graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import (
    CyclicForm,
    DirectSumAlgebra,
    ShiftedMatrixAlgebra,
    _require_listable,
    canonical_form,
)
from .errors import NotRealizableError
from .graphs import DirectedGraph


@dataclass(frozen=True)
class Verdict:
    """Outcome of a realizability test on a single matrix algebra.

    On failure, failing_index is the first violated position in the natural
    multiplicity list: the reduced shift value over K, the residue class over
    a Laurent base.
    """

    ok: bool
    failing_index: int | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "yes" if self.ok else f"no: {self.reason}"


@dataclass(frozen=True)
class SumVerdict:
    """Outcome for a direct sum; failures list (1-based summand, verdict)."""

    ok: bool
    failures: tuple[tuple[int, Verdict], ...] = ()

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
    if a.base.is_trivial:
        # (reduced shift, count) pairs in increasing order, starting at 0
        pairs = a._class_form[1]
        if pairs[0][1] != 1:
            return Verdict(
                False, 0, f"l_0 = {pairs[0][1]}, but only the trivial path has length 0"
            )
        for (previous, _), (value, _) in zip(pairs, pairs[1:]):
            if value > previous + 1:
                return Verdict(
                    False,
                    previous + 1,
                    f"l_{previous + 1} = 0: a path of length {value} to the sink"
                    f" forces one of length {previous + 1}",
                )
        return Verdict(True)
    m = a.base.period
    present = {s % m for s, _ in a.runs}
    if len(present) == m:
        return Verdict(True)
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

    Built from the canonical form, so graded isomorphic inputs synthesize the
    same graph.  Raises NotRealizableError (with the verdict) otherwise, and
    ValueError past 1,000,000 shifts, one vertex each.
    """
    verdict = is_realizable(a)
    if not verdict:
        raise NotRealizableError(verdict)
    return DirectedGraph.from_edges(*_witness(a))


def synthesize_sum(r: DirectSumAlgebra) -> DirectedGraph:
    """Disjoint union of witness graphs, vertex ids namespaced per summand."""
    verdict = is_realizable_sum(r)
    if not verdict:
        raise NotRealizableError(verdict)
    edges: list[tuple[str, str, str]] = []
    isolated: list[str] = []
    for pos, summand in enumerate(r.summands, 1):
        part_edges, part_isolated = _witness(summand, f"s{pos}_")
        edges.extend(part_edges)
        isolated.extend(part_isolated)
    return DirectedGraph.from_edges(edges, isolated=isolated)


def _witness(a: ShiftedMatrixAlgebra, prefix: str = "") -> tuple[list[tuple[str, str, str]], list[str]]:
    """Edges (source, range, id) and the vertices they may miss of the
    witness graph of a realizable `a`, every id prefixed with `prefix`."""
    _require_listable(a.n)
    form = canonical_form(a)
    pairs: list[tuple[str, str]] = []
    if isinstance(form, CyclicForm):
        m = form.period
        # the cycle v0 <- v1 <- ... <- v_{m-1} <- v0, walked toward v0
        for i in range(m - 1):
            pairs.append((f"v{i+1}", f"v{i}"))
        pairs.append(("v0", f"v{m-1}"))
        # l_i - 1 extra branches of length i into the cycle
        for i in range(1, m):
            for j in range(1, form.mults[i]):
                pairs.append((f"v{i}_{j}", f"v{i-1}"))
        for j in range(1, form.mults[0]):
            pairs.append((f"v0_{j}", f"v{m-1}"))
        isolated = []
    else:
        # over K: a layered tree onto the single sink v0_1
        for i in range(1, form.k + 1):
            for j in range(1, form.mults[i] + 1):
                pairs.append((f"v{i}_{j}", f"v{i-1}_1"))
        isolated = [f"{prefix}v0_1"]
    edges = [(prefix + src, prefix + dst, f"{prefix}e{k}") for k, (src, dst) in enumerate(pairs, 1)]
    return edges, isolated
