"""The paper's path identities, checked where no walk oracle reaches.

Two exact identities between representations need no oracle:

  (a) adding a new source w with one edge w -> v adds to each summand its
      part of corner_by_vertices(g, [v]), every shift raised by 1;
  (b) for disjoint vertex sets A and B, each summand of the corner at A | B
      is the multiset union of its corners at A and at B, and the corner at
      every vertex is represent(g).sum.

They are checked on the benchmark's families at their large sizes (a star of
1,600 sinks, 800 loop-comets, the 16,000-vertex line) and on a chain of 60
diamonds with 2^62 - 3 paths whose names sort in scrambled order, by integer
arithmetic on run columns that are never expanded, and on random no-exit
graphs under hypothesis.  A corner drops the summands it leaves empty; the
summands it keeps are those whose end some chosen vertex reaches, found by a
backward search over the Edge tuples, so the alignment does not read the
counts under test.  The walk of _path_counts also meets the walk oracle here:
each summand's slice of the shared columns equals naive_summand_counts.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import comet_edges, diamond_chain, naive_summand_counts, random_no_exit_graph
from gradedlpa import DirectedGraph, classify, corner_by_vertices, represent
from gradedlpa.graphs import _summand_counts


def _runs(a) -> Counter:
    """An algebra's shift multiset, read off its run columns."""
    tally = Counter()
    for shift, count in a.runs:
        tally[shift] += count
    return tally


def _raised(tally: Counter) -> Counter:
    return Counter({shift + 1: count for shift, count in tally.items()})


def _ends(g: DirectedGraph):
    """Per summand its end and the cycle its paths must avoid (None for a
    sink), in represent's order, from classify alone."""
    info = classify(g)
    return [(sink, None) for sink in info.sinks] + [(c.vertices[0], c) for c in info.cycles]


def _reach(g: DirectedGraph) -> list[set]:
    """Per summand the vertices with a path to its end that avoids its
    cycle: a backward search that never steps back through a cycle's end."""
    pred: dict[str, list[str]] = {v: [] for v in g.vertices}
    for edge in g.edges:
        pred[edge.range].append(edge.source)
    out = []
    for end, cycle in _ends(g):
        seen, todo = {end}, [end]
        while todo:
            for u in pred[todo.pop()]:
                if u not in seen and not (cycle is not None and u == end):
                    seen.add(u)
                    todo.append(u)
        out.append(seen)
    return out


def _aligned(g, reach, vs) -> list[Counter]:
    """Per summand of represent(g), its part of the corner at vs: the
    corner's kept summands, in order, placed at the summands vs reaches."""
    chosen = set(vs)
    kept = iter(corner_by_vertices(g, chosen).summands)
    return [_runs(next(kept)) if chosen & r else Counter() for r in reach]


def _with_source(g: DirectedGraph, w: str, v: str) -> DirectedGraph:
    edges = [(e.source, e.range) for e in g.edges]
    return DirectedGraph.from_edges(edges + [(w, v)], isolated=g.vertices)


def check_new_source(g: DirectedGraph, reach, v: str):
    """Identity (a) at v."""
    w = "~new source"
    assert w not in g.vertices
    before = [_runs(a) for a in represent(g).sum.summands]
    after = [_runs(a) for a in represent(_with_source(g, w, v)).sum.summands]
    corner = _aligned(g, reach, [v])
    assert len(after) == len(before) == len(corner)
    for old, new, part in zip(before, after, corner):
        assert new - old == _raised(part) and old - new == Counter()


def check_corner_union(g: DirectedGraph, reach, a: set, b: set):
    """Identity (b) at the disjoint sets a and b, and at every vertex."""
    assert not a & b
    whole = [_runs(x) for x in represent(g).sum.summands]
    assert corner_by_vertices(g, g.vertices) == represent(g).sum
    assert _aligned(g, reach, g.vertices) == whole
    if not a or not b:
        return
    left, right, union = _aligned(g, reach, a), _aligned(g, reach, b), _aligned(g, reach, a | b)
    assert union == [x + y for x, y in zip(left, right)]


def _star(sinks: int) -> DirectedGraph:
    return DirectedGraph.from_edges([("hub", f"s{i}") for i in range(sinks)])


def _line(n: int) -> DirectedGraph:
    return DirectedGraph.from_edges([(f"v{i}", f"v{i + 1}") for i in range(n - 1)])


def _scrambled_diamonds(k: int) -> DirectedGraph:
    """diamond_chain(k) renamed so that name order has nothing to do with
    chain order."""
    g = diamond_chain(k)
    rng = random.Random(60)
    labels = rng.sample(range(10 * len(g.vertices)), len(g.vertices))
    name = {v: f"n{label:05}" for v, label in zip(g.vertices, labels)}
    return DirectedGraph.from_edges([(name[e.source], name[e.range]) for e in g.edges])


LARGE = {
    "star-1600": (lambda: _star(1600), ["hub", "s0", "s799", "s1599"]),
    "comets-800": (lambda: DirectedGraph.from_edges(comet_edges(800)), ["c0t0", "c400t1", "c799t3", "c17t2"]),
    "line-16000": (lambda: _line(16000), ["v0", "v8000", "v15999"]),
    "diamonds-60": (lambda: _scrambled_diamonds(60), None),
}


@pytest.fixture(scope="module", params=list(LARGE))
def large(request):
    build, picks = LARGE[request.param]
    g = build()
    if picks is None:  # the scrambled chain: its source, a join, a side vertex and the sink
        order = [e.source for e in g.edges]
        picks = [order[0], order[100], order[102], classify(g).sinks[0]]
    return g, _reach(g), picks


def test_new_source_adds_the_corner_raised_by_one(large):
    g, reach, picks = large
    for v in picks:
        check_new_source(g, reach, v)


def test_corner_of_a_union_is_the_union_of_corners(large):
    g, reach, _ = large
    rng = random.Random(13)
    for _ in range(2):
        names = list(g.vertices)
        rng.shuffle(names)
        third = len(names) // 3
        check_corner_union(g, reach, set(names[:third]), set(names[third : 2 * third]))


def test_scrambled_diamonds_count_every_path():
    g = _scrambled_diamonds(60)
    (whole,) = represent(g).sum.summands
    assert whole.n == 2**62 - 3 and len(whole.runs) == 121


@settings(max_examples=120)
@given(st.integers(0, 10**6), st.data())
def test_identities_on_random_graphs(seed, data):
    g = random_no_exit_graph(random.Random(seed), max_extra=6)
    reach = _reach(g)
    check_new_source(g, reach, data.draw(st.sampled_from(g.vertices)))
    a = set(data.draw(st.lists(st.sampled_from(g.vertices), max_size=4)))
    b = set(data.draw(st.lists(st.sampled_from(g.vertices), max_size=4))) - a
    check_corner_union(g, reach, a, b)


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.data())
def test_summand_slices_match_walks(seed, data):
    g = random_no_exit_graph(random.Random(seed), max_extra=6)
    choice = {}
    for cycle in classify(g).cycles:
        if data.draw(st.booleans()):
            choice[cycle] = data.draw(st.sampled_from(cycle.vertices))
    counts = _summand_counts(g, choice)
    want = naive_summand_counts(g, choice)
    assert len(counts.offsets) == len(want) + 1 == len(counts.cycles) + 1 == len(counts.ends) + 1
    for k, (cycle, end, rows) in enumerate(want):
        span = slice(counts.offsets[k], counts.offsets[k + 1])
        got = list(zip(counts.lengths[span], counts.sources[span], counts.counts[span]))
        assert (counts.cycles[k], counts.ends[k], got) == (cycle, end, rows)
        period = None if cycle is None else cycle.length
        assert counts.bases[k].period == period
    assert counts.offsets[0] == 0 and counts.offsets[-1] == len(counts.lengths) == len(counts.sources)
