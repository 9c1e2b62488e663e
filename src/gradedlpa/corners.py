"""Graded corners: cut a shifted matrix algebra down to a set of diagonal
units, or cut a represented graph down to the paths sourced by a vertex set.

A vertex of a no-exit graph maps to the sum of the diagonal units e_ii of the
paths it sources, so the corner at a vertex set keeps exactly those path
indices.  The result is again a shifted matrix algebra but need not be
realizable on its own.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, compress, islice
from operator import ne
from typing import Iterable

from .algebras import DirectSumAlgebra, ShiftedMatrixAlgebra
from .errors import (
    EmptyIndexSetError,
    IndexOutOfRangeError,
    UnknownVertexError,
    ZeroCornerError,
)
from .graphs import DirectedGraph, _summand_counts
from .realize import SumVerdict, is_realizable_sum


def corner_by_indices(a: ShiftedMatrixAlgebra, idx: Iterable[int]) -> ShiftedMatrixAlgebra:
    """The corner eMe for e the sum of the units e_ii with i in idx (1-based)."""
    chosen = sorted(set(idx))
    if not chosen:
        raise EmptyIndexSetError("a corner needs at least one index")
    if chosen[0] < 1 or chosen[-1] > a.n:
        bad = chosen[0] if chosen[0] < 1 else chosen[-1]
        raise IndexOutOfRangeError(f"index {bad} out of range 1..{a.n}")
    # run j holds the indices up to ends[j]
    ends = list(accumulate(a._run_counts))
    shifts = [a._run_shifts[bisect_left(ends, i)] for i in chosen]
    return ShiftedMatrixAlgebra._from_columns(a.base, shifts, [1] * len(shifts))


def corner_by_vertices(g: DirectedGraph, vs: Iterable[str]) -> DirectSumAlgebra:
    """The corner of the represented algebra of g at the idempotent sum of vs.

    Keeps, in each summand, the path indices whose source lies in vs; summands
    left with no paths are dropped.  One membership list over the shared
    source column of _summand_counts compresses its length and count
    columns, and each summand is cut from them by _from_columns, which merges
    equal neighbouring lengths into one run.

    >>> line = DirectedGraph.from_edges([("u", "v"), ("v", "w")])
    >>> str(corner_by_vertices(line, ["u", "w"]))
    'M2(K)(0,2)'
    """
    chosen = set(vs)
    counts = _summand_counts(g, {})
    unknown = chosen.difference(g._id_of)
    if unknown:
        raise UnknownVertexError(f"unknown vertices: {sorted(unknown)}")
    kept = list(map(chosen.__contains__, counts.sources))
    lengths, tallies = tuple(compress(counts.lengths, kept)), tuple(compress(counts.counts, kept))
    if not lengths:
        raise ZeroCornerError("no path in any summand starts in the chosen vertex set")
    # where each summand's kept rows start: the rows kept before its first
    # row, tallied up to the last summand, whose rows run to the end
    before = list(accumulate(islice(kept, counts.offsets[-2]), initial=0))
    offsets = [*map(before.__getitem__, counts.offsets[:-1]), len(lengths)]
    nonempty = list(map(ne, offsets, offsets[1:]))
    spans = list(map(slice, compress(offsets, nonempty), compress(offsets[1:], nonempty)))
    bases = compress(counts.bases, nonempty)
    summands = map(ShiftedMatrixAlgebra._from_columns, bases, map(lengths.__getitem__, spans), map(tallies.__getitem__, spans))
    return DirectSumAlgebra(tuple(summands))


def corner_realizable(g: DirectedGraph, vs: Iterable[str]) -> SumVerdict:
    """Realizability of the corner of the represented algebra of g at vs."""
    return is_realizable_sum(corner_by_vertices(g, vs))
