"""The chain walk of the path counts, the SCC pass and the summands built from
count levels, against the dict-per-level path counts of conftest and the
cycles each graph is built with: long chains with branch points, parallel
edges, loops and cycle bases, graphs that mostly peel, and graphs whose
acyclic vertices downstream of a cycle are left to Tarjan.  Mutual
reachability and cycle enumeration by brute force are too slow at 300
vertices, so each graph comes with its cycles as edge-position lists."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_cycles, cycles_in_order, naive_path_counts, naive_summand_counts
from gradedlpa import (
    DirectedGraph,
    GradedBase,
    NotNoExitError,
    ShiftedMatrixAlgebra,
    ZeroCornerError,
    classify,
    corner_by_vertices,
    paths_to_sink,
    represent,
    strongly_connected_components,
)
from gradedlpa.graphs import _path_counts, _scc_pass


def _path_rows(g, end, cycle=None):
    """_path_counts walked from one end, its columns zipped back into
    (length, source, count) rows, as naive_path_counts lists them; the
    columns must be equally long and hold that one end's rows."""
    lengths, sources, counts, offsets = _path_counts(g, [g._id_of[end]], [cycle])
    assert offsets == (0, len(sources))
    return list(zip(lengths, sources, counts, strict=True))


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # compared by class and message
        return type(exc).__name__, str(exc)


def _naive_algebra(cycle, rows):
    base = GradedBase.trivial() if cycle is None else GradedBase.laurent(cycle.length)
    return ShiftedMatrixAlgebra(base, [(length, count) for length, _, count in rows])


def _naive_corner(g, vs, cycles):
    kept = [(cycle, [row for row in table if row[1] in vs]) for cycle, _, table in naive_summand_counts(g, {}, cycles)]
    return [_naive_algebra(cycle, rows) for cycle, rows in kept if rows]


def _components(g, walks):
    """The SCCs of a graph whose only cycles are `walks` (edge-position
    lists): cycles sharing a vertex merged, every other vertex alone."""
    comps = [{v} for v in g.vertices]
    for walk in walks:
        on = {g.edges[pos].source for pos in walk}
        touched = [c for c in comps if c & on]
        comps = [c for c in comps if not c & on] + [set().union(*touched)]
    return [tuple(sorted(c)) for c in comps]


def _check(g, end, walks):
    """Every pass the chain walk and the SCC pass feed, against the oracles
    and `walks`, the edge positions of every cycle g was built with."""
    sccs = _components(g, walks)
    assert strongly_connected_components(g) == sorted(sccs)
    cycles = cycles_in_order(g, walks, sccs)
    if len(g.vertices) <= 12:  # small enough to enumerate: the walks are every cycle
        assert cycles == brute_cycles(g)
    info = classify(g)
    assert info.cycles == tuple(cycles)
    assert _outcome(_path_rows, g, end) == _outcome(naive_path_counts, g, end)
    for cycle in cycles:
        if end in cycle.vertices:
            assert _outcome(_path_rows, g, end, cycle) == _outcome(naive_path_counts, g, end, cycle)
    if not info.no_exit:
        assert _outcome(represent, g) == _outcome(naive_summand_counts, g, {}, cycles)
        return
    # summands built from count levels equal the normalised ones, runs and size
    summands = represent(g).sum.summands
    naive = [_naive_algebra(cycle, table) for cycle, _, table in naive_summand_counts(g, {}, cycles)]
    assert summands == tuple(naive)
    assert [(a.runs, a.n) for a in summands] == [(a.runs, a.n) for a in naive]
    for vs in (g.vertices[::3], g.vertices[1::2], (end,)):
        naive = _naive_corner(g, set(vs), cycles)
        if not naive:
            assert _outcome(corner_by_vertices, g, vs)[0] == ZeroCornerError.__name__
            continue
        corner = corner_by_vertices(g, vs).summands
        assert [(a.base, a.runs, a.n) for a in corner] == [(a.base, a.runs, a.n) for a in naive]


@st.composite
def decorated_chains(draw):
    """A chain x_L -> ... -> x_1 -> x_0 of up to 300 vertices with side
    branches, shortcuts, parallel edges and loops; x_0 is a sink or the base
    of a cycle.  Names and edge order are scrambled, so ids do not follow the
    chain."""
    length = draw(st.integers(0, 300))
    pairs = [(i + 1, i) for i in range(length)]
    n = length + 1
    cycles = []  # each loop and the ring, as indices into pairs
    kinds = st.sampled_from(["branch", "shortcut", "parallel", "loop"])
    for kind, i in draw(st.lists(st.tuples(kinds, st.integers(0, length)), max_size=8)):
        if kind == "branch":  # a new vertex, and maybe one above it, into x_i
            pairs.append((n, i))
            n += 1
            if draw(st.booleans()):
                pairs.append((n, n - 1))
                n += 1
        elif kind == "shortcut" and i < length:  # a second way down to x_i
            pairs.append((draw(st.integers(i + 1, length)), i))
        elif kind == "parallel" and i < length:
            pairs.append((i + 1, i))
        elif kind == "loop":
            cycles.append([len(pairs)])
            pairs.append((i, i))
    ring = draw(st.integers(0, 4))
    if ring:  # x_0 -> c_1 -> ... -> x_0
        cycle = [0] + list(range(n, n + ring - 1))
        n += ring - 1
        cycles.append(list(range(len(pairs), len(pairs) + ring)))
        pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
    g, name, walks = _scrambled(draw, n, pairs, cycles)
    return g, name[0], walks


def _scrambled(draw, n, pairs, cycles):
    """The graph of `pairs` on n vertices, names and edge order shuffled,
    its vertex names by number, and `cycles` as edge positions."""
    # one drawn seed: a Hypothesis random would make every shuffle step a draw
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    labels = list(range(n))
    rng.shuffle(labels)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    position = {k: pos for pos, k in enumerate(order)}
    name = [f"v{k}" for k in labels]
    g = DirectedGraph.from_edges([(name[pairs[k][0]], name[pairs[k][1]]) for k in order], isolated=name)
    return g, name, [[position[k] for k in cycle] for cycle in cycles]


@settings(max_examples=200)
@given(decorated_chains())
def test_chain_walk_matches_dict_levels(case):
    _check(*case)


@st.composite
def reached_from_cycles(draw):
    """Up to 3 cycles, each feeding a random acyclic part below it that the
    peel cannot remove, above a larger acyclic part that it does."""
    pairs = []
    rings = []  # as indices into pairs
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        ring = draw(st.integers(1, 3))
        rings.append(list(range(len(pairs), len(pairs) + ring)))
        pairs += [(n + j, n + (j + 1) % ring) for j in range(ring)]
        below = draw(st.integers(0, 6))
        # each vertex below has a source among the cycle and the vertices before it
        for k in range(n + ring, n + ring + below):
            pairs += [(s, k) for s in draw(st.lists(st.integers(n, k - 1), min_size=1, max_size=2))]
        n += ring + below
    top = draw(st.integers(0, 40))
    for k in range(n, n + top):  # acyclic, into anything before it
        pairs += [(k, t) for t in draw(st.lists(st.integers(0, k - 1), max_size=2))]
    n += top
    g, _, walks = _scrambled(draw, n, pairs, rings)
    return g, walks


@settings(max_examples=200)
@given(reached_from_cycles())
def test_scc_pass_matches_built_cycles(case):
    g, walks = case
    for end in g.vertices[:3]:
        _check(g, end, walks)


def _names(g, comps):
    return sorted(sorted(g.vertices[v] for v in comp) for comp in comps)


def test_parallel_edges_count_twice_along_a_chain():
    # a -> b twice, then a line above a: every path through a doubles
    g = DirectedGraph.from_edges([("a", "b"), ("a", "b")] + [(f"u{i + 1}", f"u{i}") for i in range(5)] + [("u0", "a")])
    assert _path_rows(g, "b") == [(0, "b", 1), (1, "a", 2)] + [(k + 2, f"u{k}", 2) for k in range(6)]
    _check(g, "b", [])


def test_line_of_300_with_a_branch_point():
    line = [(f"x{i + 1:03}", f"x{i:03}") for i in range(299)]
    g = DirectedGraph.from_edges(line + [("y", "x150"), ("x299", "x150")])
    table = _path_rows(g, "x000")
    # the level of three vertices, then one vertex a level again up the line
    assert [row for row in table if row[0] in (150, 151, 152)] == [
        (150, "x150", 1), (151, "x151", 1), (151, "x299", 1), (151, "y", 1), (152, "x152", 1)
    ]
    # x299 reaches x150 directly and along the line
    assert table[-1] == (299, "x299", 1)
    assert sum(count for _, _, count in table) == 302
    _check(g, "x000", [])


def test_chain_into_a_blocked_cycle_base():
    # t3 -> t2 -> t1 -> c0, and the cycle c0 -> c1 -> c2 -> c0
    g = DirectedGraph.from_edges([("t3", "t2"), ("t2", "t1"), ("t1", "c0"), ("c0", "c1"), ("c1", "c2"), ("c2", "c0")])
    (cycle,) = classify(g).cycles
    assert _path_rows(g, "c0", cycle) == [(0, "c0", 1), (1, "c2", 1), (1, "t1", 1), (2, "c1", 1), (2, "t2", 1), (3, "t3", 1)]
    # from c1 the chain runs back to the blocked base and stops there
    assert _path_rows(g, "c1", cycle) == [(0, "c1", 1), (1, "c0", 1), (2, "c2", 1), (2, "t1", 1), (3, "t2", 1), (4, "t3", 1)]
    _check(g, "c0", [[3, 4, 5]])
    # a two-cycle alone: the chain steps once and reaches the base
    g = DirectedGraph.from_edges([("c0", "c1"), ("c1", "c0")])
    (cycle,) = classify(g).cycles
    assert _path_rows(g, "c0", cycle) == [(0, "c0", 1), (1, "c1", 1)]


def test_loop_above_a_sink_hits_the_bound():
    # a loops and also leads down a chain to the sink s: not no-exit, so the
    # count never ends and the bound raises, as it did with a dict per level
    g = DirectedGraph.from_edges([("a", "a"), ("a", "b"), ("b", "c"), ("c", "s")])
    want = _outcome(naive_path_counts, g, "s")
    assert want[0] == NotNoExitError.__name__
    assert _outcome(_path_rows, g, "s") == want
    assert _outcome(paths_to_sink, g, "s") == ("NotNoExitError", "cycle vertex 'a' emits 2 edges")
    _check(g, "s", [[0]])


def test_a_graph_that_mostly_peels():
    # a 300-vertex binary tree draining into a loop: only the loop is left to Tarjan
    pairs = [(f"t{k}", f"t{(k - 1) // 2}") for k in range(1, 300)] + [("t0", "z"), ("z", "z")]
    g = DirectedGraph.from_edges(pairs)
    assert _names(g, _scc_pass(g)) == [["z"]]
    assert g._analysis.cyclic_components == (("z",),)
    assert len(strongly_connected_components(g)) == 301
    _check(g, "z", [[300]])
    # an acyclic graph costs the peel alone
    line = DirectedGraph.from_edges([(f"v{i}", f"v{i + 1}") for i in range(300)])
    assert _scc_pass(line) == []
    assert line._analysis.cyclic_components == ()


def test_acyclic_singletons_below_a_cycle_are_left_to_tarjan():
    # a <-> b feeds c, which feeds d and e; the forward peel removes only p
    # above, and Tarjan walks c, d and e below the exit b, which the
    # sink-first peel settled
    g = DirectedGraph.from_edges([("p", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("c", "e")])
    assert _names(g, _scc_pass(g)) == [["a", "b"], ["c"], ["d"], ["e"]]
    assert g._analysis.cyclic_components == (("a", "b"),)
    assert g._analysis.exit_vertex == "b"
    assert strongly_connected_components(g) == [("a", "b"), ("c",), ("d",), ("e",), ("p",)]
    _check(g, "d", [[1, 2]])
    # with a loop below, the looped singleton is cyclic too
    g = DirectedGraph.from_edges([("a", "b"), ("b", "a"), ("b", "c"), ("c", "c")])
    assert g._analysis.cyclic_components == (("a", "b"), ("c",))
    _check(g, "c", [[0, 1], [3]])
