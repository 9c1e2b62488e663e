"""Graded matricial representation of the Leavitt path algebra of a finite
no-exit graph.

Each sink contributes a matrix algebra over K whose shifts are the lengths of
the paths ending in that sink; each cycle of length m contributes a matrix
algebra over K[x^m, x^-m] whose shifts are the lengths of the paths ending at
a chosen base vertex on the cycle without containing the cycle.  Different
base vertices change the shift lists but never the graded isomorphism class.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from .algebras import DirectSumAlgebra, ShiftedMatrixAlgebra, _Record, _unchecked
from .graphs import CycleDescriptor, DirectedGraph, _expand, _summand_counts


class _CountedPaths(_Record):
    """Paths kept as the three _path_counts columns, ascending by length,
    then source: lengths, source names and counts.  `rows` and `paths` are
    built on each call, for callers that list them; no library pass reads
    them."""

    @property
    def rows(self) -> tuple[tuple[int, str, int], ...]:
        """One (length, source, count) row per (length, source) pair."""
        return tuple(zip(self.lengths, self.sources, self.counts))

    @property
    def paths(self) -> tuple[tuple[str, int], ...]:
        """One (source, length) pair per path; raises ValueError past 1,000,000."""
        return tuple(_expand(self.lengths, self.sources, self.counts))


class SinkSummand(_CountedPaths):
    """Provenance of one summand over K: the sink and its incoming paths."""

    __match_args__ = ("sink", "lengths", "sources", "counts")

    def __init__(self, sink: str, lengths: tuple[int, ...], sources: tuple[str, ...], counts: tuple[int, ...]):
        vars(self).update(sink=sink, lengths=lengths, sources=sources, counts=counts)


class CycleSummand(_CountedPaths):
    """Provenance of one Laurent summand: the cycle, the base vertex on it,
    and the paths ending there that do not contain the cycle."""

    __match_args__ = ("cycle", "base_vertex", "lengths", "sources", "counts")

    def __init__(
        self,
        cycle: CycleDescriptor,
        base_vertex: str,
        lengths: tuple[int, ...],
        sources: tuple[str, ...],
        counts: tuple[int, ...],
    ):
        vars(self).update(cycle=cycle, base_vertex=base_vertex, lengths=lengths, sources=sources, counts=counts)


Provenance = SinkSummand | CycleSummand


class RepresentationReport(_Record):
    """The represented direct sum plus, per summand, where it came from.

    Summand i of `sum` corresponds to provenance entry i; path j of a summand
    corresponds to the diagonal unit e_jj (1-based), and shifts[j] is its
    length.  A vertex maps to the sum of the units of the paths it sources.

    A report from represent_at keeps its _summand_counts and cuts the
    provenance from them on first access; it compares, hashes, prints and
    pickles as one built with its provenance.
    """

    __match_args__ = ("sum", "provenance")

    def __init__(self, sum: DirectSumAlgebra, provenance: tuple[Provenance, ...]):
        vars(self).update(sum=sum, provenance=provenance)

    @cached_property
    def provenance(self) -> tuple[Provenance, ...]:
        counts = self._counts
        spans = list(map(slice, counts.offsets, counts.offsets[1:]))
        columns = (counts.lengths, counts.sources, counts.counts)
        lengths, sources, tallies = (map(column.__getitem__, spans) for column in columns)
        return tuple(map(_provenance, counts.cycles, counts.ends, lengths, sources, tallies))


def represent(g: DirectedGraph) -> RepresentationReport:
    """Representation with default base vertices (smallest vertex per cycle).

    >>> comet = DirectedGraph.from_edges([("t", "u"), ("u", "v"), ("v", "u")])
    >>> rep = represent(comet)
    >>> str(rep.sum), rep.provenance[0].paths
    ('M3(K[x^2])(0,1,1)', (('u', 0), ('t', 1), ('v', 1)))
    """
    return represent_at(g, {})


def represent_at(
    g: DirectedGraph, base_choice: Mapping[CycleDescriptor, str]
) -> RepresentationReport:
    """Representation with caller-chosen base vertices for some or all cycles.

    Keys of `base_choice` must be g's own cycles, as classify returns them;
    any cycle not mentioned uses its lexicographically smallest vertex.
    Every summand, and on first access every provenance entry, is cut from
    the shared columns of _summand_counts, one slice per summand: the rows
    ascend by length, so _from_columns merges a level of several sources
    into one run.
    """
    counts = _summand_counts(g, base_choice)
    spans = list(map(slice, counts.offsets, counts.offsets[1:]))
    lengths = map(counts.lengths.__getitem__, spans)
    tallies = map(counts.counts.__getitem__, spans)
    summands = tuple(map(ShiftedMatrixAlgebra._from_columns, counts.bases, lengths, tallies))
    return _unchecked(RepresentationReport, sum=DirectSumAlgebra(summands), _counts=counts)


def _provenance(cycle, end, lengths, sources, counts) -> Provenance:
    # columns cut from valid counts, so the record constructor is skipped
    if cycle is None:
        return _unchecked(SinkSummand, sink=end, lengths=lengths, sources=sources, counts=counts)
    return _unchecked(CycleSummand, cycle=cycle, base_vertex=end, lengths=lengths, sources=sources, counts=counts)
