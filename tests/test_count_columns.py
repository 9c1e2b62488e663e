"""Path counts and summand runs held as int columns, against the dense
definitions: the class form, canonical_form, is_realizable and both corners
of algebras drawn over K and K[x^m] from shift lists that are unsorted,
repeated, gapped and negative, and of the algebras represented from random
no-exit graphs.  The views built from the columns (runs, shifts, provenance
rows and paths) and equality, hashing, repr and pickling must give what the
(shift, count) and (length, source, count) tuples gave when they were
stored."""

import pickle
import random
from collections import Counter
from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_canonical_form, naive_paths_to_cycle, naive_paths_to_sink, naive_summand_counts
from conftest import random_no_exit_graph
from gradedlpa import (
    GradedBase,
    ShiftedMatrixAlgebra,
    ZeroCornerError,
    canonical_form,
    corner_by_indices,
    corner_by_vertices,
    format_graph,
    is_graded_isomorphic,
    is_realizable,
    parse_algebra,
    parse_graph,
    represent,
)
from gradedlpa.algebras import _class_key

K = GradedBase.trivial()

# runs of an unsorted shift list with repeats, gaps and negative shifts; a
# shift drawn from a narrow range repeats often, from a wide one leaves gaps
RUNS = st.lists(
    st.tuples(st.one_of(st.integers(-3, 3), st.integers(-40, 40)), st.integers(1, 3)), min_size=1, max_size=8
)
BASES = st.one_of(st.just(K), st.integers(1, 6).map(GradedBase.laurent))


def _dense_counts(shifts, start, m):
    """Entry i counts the shifts at start + i, modulo m over K[x^m]."""
    if m is None:
        return Counter(s - start for s in shifts)
    return Counter((s - start) % m for s in shifts)


def _pairs_at_least_rotation(mults, m):
    """The (-gap, count) pairs of a canonical residue vector, from its first
    occupied residue, each gap cyclic modulo m."""
    occupied = [r for r, c in enumerate(mults) if c]
    return tuple((previous - r, mults[r]) for previous, r in zip([occupied[-1] - m] + occupied, occupied))


def _naive_verdict(base, shifts):
    """(ok, failing index) by the multiplicity definitions: over K, l_0 = 1
    and no zero up to the largest shift; over K[x^m], every residue."""
    if base.is_trivial:
        mults = naive_canonical_form(ShiftedMatrixAlgebra.from_shifts(base, shifts)).mults
        if mults[0] != 1:
            return False, 0
        missing = [i for i, c in enumerate(mults) if not c]
        return (False, missing[0]) if missing else (True, None)
    missing = [r for r in range(base.period) if r not in {s % base.period for s in shifts}]
    return (False, missing[0]) if missing else (True, None)


@settings(max_examples=300)
@given(BASES, RUNS, st.lists(st.integers(1, 24), min_size=1, max_size=6))
def test_column_forms_match_dense_definitions(base, runs, idx):
    shifts = [s for s, count in runs for _ in range(count)]
    m = base.period
    # the runs the pairs were normalised to: equal neighbours merged
    merged = tuple((s, len(list(group))) for s, group in groupby(shifts))
    a = ShiftedMatrixAlgebra(base, runs)
    parsed = parse_algebra(f"M{len(shifts)}({base})({','.join(f'{c}({s})' for s, c in runs)})").summands[0]
    for b in (a, ShiftedMatrixAlgebra.from_shifts(base, shifts), parsed):
        assert b.runs == merged and b.shifts == tuple(shifts) and b.n == len(shifts)
        assert b == a and hash(b) == hash((base, merged))
        assert repr(b) == f"ShiftedMatrixAlgebra(base={base!r}, runs={merged!r})"
        assert str(b) == f"M{len(shifts)}({base})({','.join(map(str, shifts))})"
        # a pickle holds (base, runs, n), as it did when the runs were stored
        assert b.__getstate__() == {"base": base, "runs": merged, "n": len(shifts)}
        assert pickle.loads(pickle.dumps(b)) == a
        stored = ShiftedMatrixAlgebra.__new__(ShiftedMatrixAlgebra)
        stored.__setstate__({"base": base, "runs": merged, "n": len(shifts)})
        assert stored == a and stored.runs == merged
    moved = ShiftedMatrixAlgebra.from_shifts(base, [shifts[0] + 1, *shifts[1:]])
    assert moved != a and a != ShiftedMatrixAlgebra.from_shifts(GradedBase.laurent((m or 0) + 1), shifts)

    # class form: start and columns read back the dense counts at start
    start, keys, counts = a._class_form
    assert len(keys) == len(counts)
    form = canonical_form(a)
    assert form == naive_canonical_form(a)
    assert dict(_dense_counts(shifts, start, m)) == {i: c for i, c in enumerate(form.mults) if c}
    if m is None:
        low = min(shifts)
        distinct = sorted(set(shifts))
        assert (start, keys, counts) == (low, tuple(s - low for s in distinct), tuple(map(shifts.count, distinct)))
        # no gap exactly when the last key is the number of keys less one
        assert (keys[-1] == len(keys) - 1) == all(form.mults)
        pairs = tuple(zip(keys, counts))
    else:
        pairs = _pairs_at_least_rotation(form.mults, m)
        assert tuple(zip(keys, counts)) == pairs
        assert (len(keys) == m) == all(form.mults)
    assert _class_key(a) == (m or 0, len(shifts), tuple(k for k, _ in pairs), tuple(c for _, c in pairs))

    verdict = is_realizable(a)
    assert (verdict.ok, verdict.failing_index) == _naive_verdict(base, shifts)
    assert is_graded_isomorphic(a, ShiftedMatrixAlgebra.from_shifts(base, [s + 3 * (m or 1) for s in reversed(shifts)]))

    idx = [i for i in idx if i <= len(shifts)] or [len(shifts)]
    corner = corner_by_indices(a, idx)
    want = [shifts[i - 1] for i in sorted(set(idx))]
    assert corner.runs == tuple((s, len(list(group))) for s, group in groupby(want))
    assert corner == ShiftedMatrixAlgebra.from_shifts(base, want)


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.lists(st.integers(0, 12), max_size=5))
def test_count_columns_match_walks(seed, picks):
    g = random_no_exit_graph(random.Random(seed), max_extra=6)
    rep = represent(g)
    again = represent(parse_graph(format_graph(g)))  # equal columns, none shared
    tables = naive_summand_counts(g, {})
    assert len(rep.provenance) == len(tables) == len(rep.sum.summands)
    for summand, prov, (cycle, vertex, rows), twin in zip(rep.sum.summands, rep.provenance, tables, again.provenance):
        assert prov.rows == tuple(rows)
        assert (prov.lengths, prov.sources, prov.counts) == tuple(map(tuple, zip(*rows)))
        if cycle is None:
            assert prov.sink == vertex
            walks = naive_paths_to_sink(g, vertex)
        else:
            assert (prov.cycle, prov.base_vertex) == (cycle, vertex)
            walks = naive_paths_to_cycle(g, cycle.edges, vertex)
        assert list(prov.paths) == sorted(walks, key=lambda p: (p[1], p[0]))
        assert prov == twin and hash(prov) == hash(twin) and pickle.loads(pickle.dumps(prov)) == prov
        # each level's count is one run; a level of several sources sums them
        per_level = Counter()
        for length, _, count in rows:
            per_level[length] += count
        assert summand.runs == tuple(sorted(per_level.items()))
        assert canonical_form(summand) == naive_canonical_form(summand)
        assert is_realizable(summand).ok

    # a corner keeps, per summand, the paths sourced in the chosen vertices
    chosen = {g.vertices[i % len(g.vertices)] for i in picks}
    want = []
    for cycle, _, rows in tables:
        kept = [length for length, source, count in rows if source in chosen for _ in range(count)]
        if kept:
            base = K if cycle is None else GradedBase.laurent(cycle.length)
            want.append(ShiftedMatrixAlgebra.from_shifts(base, kept))
    if not want:
        try:
            corner_by_vertices(g, chosen)
        except ZeroCornerError:
            return
        raise AssertionError("an empty corner must raise ZeroCornerError")
    corner = corner_by_vertices(g, chosen).summands
    assert corner == tuple(want)
    assert [a.runs for a in corner] == [a.runs for a in want]
