"""Graded matricial representation of the Leavitt path algebra of a finite
no-exit graph.

Each sink contributes a matrix algebra over K whose shifts are the lengths of
the paths ending in that sink; each cycle of length m contributes a matrix
algebra over K[x^m, x^-m] whose shifts are the lengths of the paths ending at
a chosen base vertex on the cycle without containing the cycle.  Different
base vertices change the shift lists but never the graded isomorphism class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .algebras import DirectSumAlgebra, GradedBase, ShiftedMatrixAlgebra
from .errors import EmptyGraphError
from .graphs import (
    CycleDescriptor,
    DirectedGraph,
    _require_no_exit,
    paths_to_cycle_vertex,
    paths_to_sink,
)


@dataclass(frozen=True)
class SinkSummand:
    """Provenance of one summand over K: the sink and its incoming paths."""

    sink: str
    paths: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CycleSummand:
    """Provenance of one Laurent summand: the cycle, the base vertex on it,
    and the paths ending there that do not contain the cycle."""

    cycle: CycleDescriptor
    base_vertex: str
    paths: tuple[tuple[str, int], ...]


Provenance = Union[SinkSummand, CycleSummand]


@dataclass(frozen=True)
class RepresentationReport:
    """The represented direct sum plus, per summand, where it came from.

    Summand i of `sum` corresponds to provenance entry i; path j of a summand
    corresponds to the diagonal unit e_jj (1-based), and shifts[j] is its
    length.  A vertex maps to the sum of the units of the paths it sources.
    """

    sum: DirectSumAlgebra
    provenance: tuple[Provenance, ...]


def represent(g: DirectedGraph) -> RepresentationReport:
    """Representation with default base vertices (smallest vertex per cycle)."""
    return represent_at(g, {})


def represent_at(
    g: DirectedGraph, base_choice: Mapping[CycleDescriptor, str]
) -> RepresentationReport:
    """Representation with caller-chosen base vertices for some or all cycles.

    Keys of `base_choice` must be cycles of g; any cycle not mentioned uses
    its lexicographically smallest vertex.
    """
    if not g.vertices:
        raise EmptyGraphError("the graph has no vertices")
    _require_no_exit(g)
    _, sinks, cycles = g._analysis
    known = set(cycles)
    for key in base_choice:
        if key not in known:
            raise ValueError(f"base choice keyed by a cycle not in this graph: {key}")

    summands: list[ShiftedMatrixAlgebra] = []
    provenance: list[Provenance] = []
    for sink in sinks:
        paths = tuple(paths_to_sink(g, sink))
        summands.append(
            ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), (l for _, l in paths))
        )
        provenance.append(SinkSummand(sink, paths))
    for cycle in cycles:
        base = base_choice.get(cycle, cycle.vertices[0])
        paths = tuple(paths_to_cycle_vertex(g, cycle, base))
        summands.append(
            ShiftedMatrixAlgebra.from_shifts(GradedBase.laurent(cycle.length), (l for _, l in paths))
        )
        provenance.append(CycleSummand(cycle, base, paths))
    return RepresentationReport(DirectSumAlgebra(tuple(summands)), tuple(provenance))
