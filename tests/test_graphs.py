import random
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_cycles,
    brute_scc,
    comet_edges,
    diamond_chain,
    naive_classify,
    naive_from_edges,
    naive_graph,
    naive_path_counts,
    naive_paths_to_cycle,
    naive_paths_to_sink,
    naive_summand_counts,
    out_degrees,
    random_no_exit_graph,
)
from gradedlpa import (
    CycleDescriptor,
    DirectedGraph,
    Edge,
    GradedBase,
    ShiftedMatrixAlgebra,
    NotASinkError,
    NotNoExitError,
    TooManyCyclesError,
    UnknownVertexError,
    VertexNotOnCycleError,
    ZeroCornerError,
    build_cycle_tail,
    build_line,
    classify,
    corner_by_vertices,
    find_cycles,
    paths_to_cycle_vertex,
    paths_to_sink,
    represent_at,
    strongly_connected_components,
)
from gradedlpa.graphs import _UNNAMED, _distinct_eids, _path_counts, _peel, _scc_pass


def _path_rows(g, end, cycle=None):
    """_path_counts walked from one end, its columns zipped back into
    (length, source, count) rows, as naive_path_counts lists them; the
    columns must be equally long and hold that one end's rows."""
    lengths, sources, counts, offsets = _path_counts(g, [g._id_of[end]], [cycle])
    assert offsets == (0, len(sources))
    return list(zip(lengths, sources, counts, strict=True))


def test_from_edges_order_and_auto_ids():
    g = DirectedGraph.from_edges([("b", "a"), ("a", "c", "loop")], isolated=("z", "a"))
    assert g.vertices == ("b", "a", "c", "z")
    assert [e.eid for e in g.edges] == ["e1", "loop"]
    assert out_degrees(g)["b"] == 1
    assert [e.eid for e in g.edges if e.range == "c"] == ["loop"]


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        DirectedGraph(("a", "a"), ())
    with pytest.raises(ValueError):
        DirectedGraph(("a",), (("e1", "a", "b"),))
    with pytest.raises(ValueError):
        DirectedGraph.from_edges([("a", "b", "e"), ("b", "a", "e")])
    # an edge that is not three fields long, even past a well-formed one
    with pytest.raises(TypeError):
        DirectedGraph(("a",), [("e1", "a", "a"), ("e2", "a", "a", "x")])


# a few names, so that vertices repeat, endpoints go unknown and explicit
# edge ids (None is one) collide with each other and with the e<position>
# of unnamed edges
FEW_NAMES = st.sampled_from(["a", "b", "v10", "v9", "Z", "vertex"])
FEW_EIDS = st.sampled_from(["e1", "e2", "e3", "x", "a", None])


def _built(build, *args):
    """(vertices, edges) of the graph built, or the ValueError's message."""
    try:
        g = build(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(g, DirectedGraph):
        # every construction route gives one graph: same value, hash and repr
        again = DirectedGraph(g.vertices, g.edges)
        assert again == g and hash(again) == hash(g)
        assert repr(g) == f"DirectedGraph(vertices={g.vertices!r}, edges={g.edges!r})"
        return "ok", (g.vertices, g.edges)
    return "ok", g


@settings(max_examples=400)
@given(
    st.lists(st.one_of(st.tuples(FEW_NAMES, FEW_NAMES), st.tuples(FEW_NAMES, FEW_NAMES, FEW_EIDS)), max_size=8),
    st.lists(FEW_NAMES, max_size=4),
)
def test_from_edges_matches_edge_tuple_build(pairs, isolated):
    assert _built(DirectedGraph.from_edges, pairs, isolated) == _built(naive_from_edges, pairs, isolated)


@settings(max_examples=400)
@given(st.lists(FEW_NAMES, max_size=6), st.lists(st.tuples(FEW_EIDS, FEW_NAMES, FEW_NAMES, st.booleans()), max_size=6))
def test_constructor_matches_edge_tuple_build(vertices, drawn):
    # plain 3-tuples and Edge tuples mixed
    edges = [Edge(*e[:3]) if as_edge else e[:3] for *e, as_edge in drawn]
    assert _built(DirectedGraph, vertices, edges) == _built(naive_graph, vertices, edges)


@st.composite
def graph_pairs(draw):
    """Two graphs on a few names, each edge left unnamed or named: the
    second's edges are the first's with at most one edge redrawn, and its
    vertex order is the first's or its reverse.  Each edge is named afresh
    in each graph, so an unnamed edge at position k meets a named e<k>."""
    vertices = draw(st.lists(FEW_NAMES, min_size=1, max_size=3, unique=True))
    ends = st.sampled_from(vertices)
    edge = st.tuples(FEW_EIDS, ends, ends)
    first = draw(st.lists(edge, max_size=3))
    second = list(first)
    if second and draw(st.booleans()):
        second[draw(st.integers(0, len(second) - 1))] = draw(edge)
    pair = []
    for order, edges in ((vertices, first), (draw(st.sampled_from([vertices, vertices[::-1]])), second)):
        eids = [eid if draw(st.booleans()) else _UNNAMED for eid, _, _ in edges]
        assume(_distinct_eids(eids))
        id_of = {v: i for i, v in enumerate(order)}
        sources, ranges = ([id_of[e[k]] for e in edges] for k in (1, 2))
        pair.append(DirectedGraph._from_columns(id_of, eids, sources, ranges))
    return pair


@settings(max_examples=200)
@given(graph_pairs())
# an unnamed edge at position k is the named e<k>, and at another position is not
@example([DirectedGraph.from_edges([("a", "b"), ("b", "a")]), DirectedGraph(("a", "b"), [("e1", "a", "b"), ("e2", "b", "a")])])
@example([DirectedGraph.from_edges([("a", "b"), ("b", "a")]), DirectedGraph(("a", "b"), [("e2", "a", "b"), ("e1", "b", "a")])])
# None is an edge id of its own, not an unnamed edge
@example([DirectedGraph(("a",), [(None, "a", "a")]), DirectedGraph.from_edges([("a", "a")])])
@example([DirectedGraph(("a",), [(None, "a", "a")]), DirectedGraph.from_edges([("a", "a", None)])])
def test_graph_identity_is_that_of_vertices_and_edges(pair):
    g, h = pair
    assert (g == h) == ((g.vertices, g.edges) == (h.vertices, h.edges))
    if g == h:
        assert hash(g) == hash(h)


def test_require_vertex():
    g = build_line(2)
    with pytest.raises(UnknownVertexError, match="unknown vertex 'nope'"):
        g.require_vertex("nope")


def test_scc_against_brute_force():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 6)
        names = [f"v{i}" for i in range(n)]
        pairs = [
            (rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 10))
        ]
        g = DirectedGraph.from_edges(pairs, isolated=names)
        got = {frozenset(comp) for comp in strongly_connected_components(g)}
        assert got == brute_scc(g)


def _reached_from_a_cycle(g, sccs, backward=False):
    """Vertices on a cycle or downstream of one (upstream with `backward`),
    by brute force: a cycle vertex shares its mutual-reachability class (one
    of `sccs`) with an edge's range."""
    comp_of = {v: comp for comp in sccs for v in comp}
    reached = {e.source for e in g.edges if e.range in comp_of[e.source]}
    arcs = [(e.range, e.source) if backward else (e.source, e.range) for e in g.edges]
    frontier = list(reached)
    while frontier:
        v = frontier.pop()
        for tail, head in arcs:
            if tail == v and head not in reached:
                reached.add(head)
                frontier.append(head)
    return reached


def _check_peel_and_sccs(g):
    settled, peeled = _peel(g)
    sccs = brute_scc(g)
    reach_one = _reached_from_a_cycle(g, sccs, backward=True)
    # the sink-first peel takes every vertex that reaches no cycle, the forward
    # peel every other one that no cycle reaches, once each
    assert sorted(g.vertices[v] for v in settled) == sorted(set(g.vertices) - reach_one)
    assert sorted(g.vertices[v] for v in peeled) == sorted(reach_one - _reached_from_a_cycle(g, sccs))
    # a settled vertex after its successors, a peeled one after its predecessors
    edges = list(zip(g._sources, g._ranges))
    position = {v: i for i, v in enumerate(settled)}
    assert all(position[r] < position[s] for s, r in edges if s in position)
    position = {v: i for i, v in enumerate(peeled)}
    assert all(position[s] < position[r] for s, r in edges if r in position)
    # the out-edge table is built iff some vertex reaches a cycle
    assert ("_out" in vars(g)) == bool(reach_one)
    # Tarjan splits the vertices that both peels leave, and walks a settled
    # vertex only below an exit, as a component of its own
    left = set(range(len(g.vertices))).difference(settled, peeled)
    comps = _scc_pass(g)
    below = [comp for comp in comps if not left.issuperset(comp)]
    assert sorted(chain.from_iterable(comps)) == sorted(chain(left, chain.from_iterable(below)))
    assert all(len(comp) == 1 and comp[0] in settled for comp in below)
    assert not below or g._analysis.exit_vertex is not None
    # the components are the mutual-reachability classes, each sorted, in sorted order
    comps = strongly_connected_components(g)
    assert {frozenset(comp) for comp in comps} == sccs
    assert comps == sorted(tuple(sorted(comp)) for comp in comps)


def test_peel_and_sccs_on_small_multigraphs(small_multigraphs):
    # every multigraph on up to 3 vertices with edge multiplicity up to 2,
    # names sorted against their mention order
    for g in small_multigraphs:
        _check_peel_and_sccs(g)
    assert len(small_multigraphs) == 19_768


def test_find_cycles_matches_brute_cycles_on_small_multigraphs(small_multigraphs):
    # the same grid against simple-path enumeration: the same cycles in the
    # same order, with the same vertices and edge ids
    for g in small_multigraphs:
        assert find_cycles(g) == brute_cycles(g)
    assert len(small_multigraphs) == 19_768


def test_classify_matches_definition_on_small_multigraphs(small_multigraphs):
    # the same grid, classify against its definition
    for g in small_multigraphs:
        assert classify(g) == naive_classify(g)
    assert len(small_multigraphs) == 19_768


@st.composite
def cycles_with_tails(draw):
    """Disjoint cycles, loops among them, fed by tails and feeding vertices
    downstream (so not always no-exit), with parallel edges."""
    n = draw(st.integers(1, 30))
    names = draw(st.permutations(ID_NAMES))[:n]
    on_cycles = draw(st.integers(0, n))
    pairs = []
    start = 0
    while start < on_cycles:
        length = draw(st.integers(1, on_cycles - start))
        pairs += [(start + j, start + (j + 1) % length) for j in range(length)]
        start += length
    # every other vertex feeds earlier vertices and is fed by them
    for i in range(max(on_cycles, 1), n):
        pairs += [(i, t) for t in draw(st.lists(st.integers(0, i - 1), max_size=2))]
        pairs += [(s, i) for s in draw(st.lists(st.integers(0, i - 1), max_size=2))]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    pairs = draw(st.permutations(pairs))
    return DirectedGraph.from_edges([(names[a], names[b]) for a, b in pairs], isolated=names)


@settings(max_examples=300)
@given(cycles_with_tails())
def test_peel_and_sccs_on_cycles_with_tails(g):
    _check_peel_and_sccs(g)


@st.composite
def sink_trees_and_cycles(draw):
    """Sink trees, cycles with tails, some with an exit into a tree, and
    vertices above them that feed one to three earlier vertices, so that
    some reach both a sink and a cycle; with parallel edges."""
    n = draw(st.integers(1, 10))
    pairs = []
    for i in range(1, n):  # each tree vertex drains into earlier ones or is a sink
        pairs += [(i, t) for t in draw(st.lists(st.integers(0, i - 1), max_size=2))]
    trees = n
    for _ in range(draw(st.integers(0, 3))):
        ring = list(range(n, n + draw(st.integers(1, 3))))
        pairs += zip(ring, ring[1:] + ring[:1])
        tail = list(range(n + len(ring), n + len(ring) + draw(st.integers(0, 3))))
        pairs += zip(tail, tail[1:] + [draw(st.sampled_from(ring))])
        if draw(st.booleans()):
            pairs.append((draw(st.sampled_from(ring)), draw(st.integers(0, trees - 1))))
        n += len(ring) + len(tail)
    top = draw(st.integers(0, 8))
    for k in range(n, n + top):
        pairs += [(k, t) for t in draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3))]
    n += top
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    names = draw(st.permutations(ID_NAMES))[:n]
    pairs = draw(st.permutations(pairs))
    return DirectedGraph.from_edges([(names[a], names[b]) for a, b in pairs], isolated=names)


@settings(max_examples=300)
@given(sink_trees_and_cycles())
def test_peel_and_sccs_on_sink_trees_and_cycles(g):
    _check_peel_and_sccs(g)
    assert classify(g) == naive_classify(g)


def test_scc_component_order():
    g = DirectedGraph.from_edges([("b", "a"), ("a", "b"), ("c", "a")])
    comps = strongly_connected_components(g)
    assert sorted(comps) == comps
    assert {tuple(sorted(c)) for c in comps} == {("a", "b"), ("c",)}


def test_find_cycles_basic_shapes():
    assert find_cycles(build_line(4)) == []
    cycles = find_cycles(build_cycle_tail(3))
    assert len(cycles) == 1 and cycles[0].vertices == ("v3",)
    two = DirectedGraph.from_edges([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    assert [c.vertices for c in find_cycles(two)] == [("a", "b"), ("c", "d")]


def test_find_cycles_multigraph():
    # two parallel edges each way: four distinct 2-cycles
    g = DirectedGraph.from_edges([("a", "b"), ("a", "b"), ("b", "a"), ("b", "a")])
    cycles = find_cycles(g)
    assert len(cycles) == 4
    assert all(c.vertices == ("a", "b") for c in cycles)
    assert len({c.edges for c in cycles}) == 4

    loops = DirectedGraph.from_edges([("v", "v"), ("v", "v")])
    assert len(find_cycles(loops)) == 2


def test_find_cycles_figure_eight():
    g = DirectedGraph.from_edges([("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")])
    assert sorted(c.vertices for c in find_cycles(g)) == [("a", "b"), ("a", "c")]


def test_classify_cycle_cap_boundary():
    # one vertex with parallel loops: 10,000 cycles are listed, one more raises
    g = DirectedGraph.from_edges([("v", "v")] * 10_000)
    cycles = classify(g).cycles
    assert len(cycles) == 10_000 and cycles[-1] == CycleDescriptor(("v",), ("e10000",))
    g = DirectedGraph.from_edges([("v", "v")] * 10_001)
    with pytest.raises(TooManyCyclesError, match="^more than 10000 cycles$"):
        classify(g)


def _loops_and_k7(loops):
    """Vertex a with `loops` parallel loops, then the complete digraph on b to
    h, whose 2,365 cycles the search lists after a's."""
    k7 = "bcdefgh"
    return DirectedGraph.from_edges([("a", "a")] * loops + [(x, y) for x in k7 for y in k7 if x != y])


def test_cycle_cap_reached_inside_a_dense_component():
    g = _loops_and_k7(7_635)  # 7,635 + 2,365: exactly the cap
    cycles = find_cycles(g)
    assert len(cycles) == 10_000 and cycles == brute_cycles(g)
    assert cycles[-1] == brute_cycles(g)[-1] and classify(g).cycles == tuple(cycles)
    # one loop more: the 10,001st cycle closes in the search of K_7
    g = _loops_and_k7(7_636)
    for call in (find_cycles, classify):
        with pytest.raises(TooManyCyclesError, match="^more than 10000 cycles$"):
            call(g)


@pytest.mark.parametrize("n", range(2, 7))
def test_find_cycles_on_dense_multigraphs(n):
    # K_n in shuffled edge order, with a parallel edge and a loop added and
    # some edges named
    for seed in range(4):
        rng = random.Random(100 * n + seed)
        names = rng.sample(ID_NAMES, n)
        pairs = [(x, y) for x in names for y in names if x != y]
        pairs += [rng.choice(pairs), (rng.choice(names),) * 2]
        rng.shuffle(pairs)
        edges = [pair + ((f"n{pos}",) if rng.random() < 0.3 else ()) for pos, pair in enumerate(pairs)]
        g = DirectedGraph.from_edges(edges)
        assert find_cycles(g) == brute_cycles(g)


@st.composite
def multigraphs_with_ids(draw):
    """Multigraphs of up to 6 vertices with loops and parallel edges.  Some
    edges carry explicit ids: the automatic ids e<position> of the named
    edges, shuffled among them, and ids no edge has."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations(ID_NAMES))[:n]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    named = [pos for pos in range(1, len(pairs) + 1) if draw(st.booleans())]
    ids = draw(st.permutations([f"e{pos}" for pos in named] + ["e0", f"e{len(pairs) + 1}", "x"]))
    eid_of = dict(zip(named, ids))
    edges = [(names[a], names[b]) + ((eid_of[pos],) if pos in eid_of else ()) for pos, (a, b) in enumerate(pairs, 1)]
    return DirectedGraph.from_edges(edges, isolated=names)


@settings(max_examples=300)
@given(multigraphs_with_ids())
def test_find_cycles_matches_brute_cycles(g):
    assert find_cycles(g) == brute_cycles(g)


def test_classify_line():
    info = classify(build_line(3))
    assert info.acyclic and info.no_exit
    assert not info.comet_per_component
    assert info.sinks == ("v3",)
    assert info.regular == ("v1", "v2")
    assert info.cycles == ()


def test_classify_cycle_tail_is_comet():
    info = classify(build_cycle_tail(4))
    assert info.no_exit and info.comet_per_component and not info.acyclic
    assert info.sinks == ()
    assert len(info.cycles) == 1 and info.cycles[0].length == 1


def test_classify_rose_not_no_exit():
    rose = DirectedGraph.from_edges([("v", "v"), ("v", "v")])
    info = classify(rose)
    assert not info.no_exit
    assert not info.acyclic
    assert len(info.cycles) == 2


def test_classify_exit_from_cycle():
    g = DirectedGraph.from_edges([("a", "b"), ("b", "a"), ("a", "s")])
    assert not classify(g).no_exit


def test_classify_comet_needs_every_vertex_connected():
    # a tail t -> a into the loop keeps the component a comet; an isolated
    # vertex is a component with no cycle, so the graph has a non-comet
    g = DirectedGraph.from_edges([("a", "a"), ("t", "a")])
    assert classify(g).comet_per_component
    h = DirectedGraph.from_edges([("a", "a")], isolated=("lonely",))
    assert not classify(h).comet_per_component
    # one vertex feeding two loops joins them into a component with two cycles
    two = DirectedGraph.from_edges([("x", "a"), ("x", "b"), ("a", "a"), ("b", "b")])
    assert not classify(two).comet_per_component


# sizes no walk oracle reaches, built so that the answer is known
LARGE_COMETS = {
    "comets-800": (lambda: DirectedGraph.from_edges(comet_edges(800)), True),
    "comets-800-joined": (lambda: DirectedGraph.from_edges(comet_edges(800) + [("x", "c3t0"), ("x", "c798t0")]), False),
    "comets-800-sink": (lambda: DirectedGraph.from_edges(comet_edges(800) + [("c400t1", "s")]), False),
    "line-16000-loop": (lambda: build_cycle_tail(16000), True),
}


@pytest.mark.parametrize("name", LARGE_COMETS)
def test_classify_comets_at_scale(name):
    build, comet = LARGE_COMETS[name]
    info = classify(build())
    assert info.no_exit and info.comet_per_component is comet


def test_classify_empty_graph():
    info = classify(DirectedGraph((), ()))
    assert info.acyclic and info.no_exit and info.comet_per_component


multigraphs = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14).map(
        lambda pairs: DirectedGraph.from_edges(
            [(f"v{a}", f"v{b}") for a, b in pairs], isolated=[f"v{i}" for i in range(n)]
        )
    )
)


@settings(max_examples=300)
@given(multigraphs)
def test_classify_matches_definition_on_random_multigraphs(g):
    assert classify(g) == naive_classify(g)


@st.composite
def cycles_fed_by_tails(draw):
    """Disjoint cycles and tails into them, with no sink and no exit, so that
    the comet flag is decided by the backward walks: each tail vertex feeds
    one or two earlier vertices, and one that feeds two may reach two cycles."""
    pairs, start = [], 0
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 3))
        pairs += [(start + j, start + (j + 1) % length) for j in range(length)]
        start += length
    n = start + draw(st.integers(0, 10 - start))
    for i in range(start, n):
        pairs += [(i, t) for t in draw(st.lists(st.integers(0, i - 1), min_size=1, max_size=2))]
    names = draw(st.permutations(ID_NAMES))[:n]
    pairs = draw(st.permutations(pairs))
    return DirectedGraph.from_edges([(names[a], names[b]) for a, b in pairs])


@settings(max_examples=200)
@given(cycles_fed_by_tails())
def test_classify_matches_definition_on_cycles_fed_by_tails(g):
    assert classify(g) == naive_classify(g)


def test_paths_to_sink_line():
    g = build_line(3)
    assert paths_to_sink(g, "v3") == [("v3", 0), ("v2", 1), ("v1", 2)]


def test_paths_to_sink_errors():
    g = build_line(3)
    with pytest.raises(NotASinkError):
        paths_to_sink(g, "v1")
    with pytest.raises(UnknownVertexError):
        paths_to_sink(g, "nope")
    rose = DirectedGraph.from_edges([("v", "v"), ("v", "v"), ("v", "s")])
    with pytest.raises(NotNoExitError):
        paths_to_sink(rose, "s")


def test_paths_to_cycle_vertex_c3():
    g = DirectedGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    cycle = find_cycles(g)[0]
    assert paths_to_cycle_vertex(g, cycle, "a") == [("a", 0), ("c", 1), ("b", 2)]
    assert paths_to_cycle_vertex(g, cycle, "b") == [("b", 0), ("a", 1), ("c", 2)]


def test_paths_to_cycle_vertex_errors():
    g = DirectedGraph.from_edges([("a", "b"), ("b", "a"), ("t", "a")])
    cycle = find_cycles(g)[0]
    with pytest.raises(VertexNotOnCycleError):
        paths_to_cycle_vertex(g, cycle, "t")
    with pytest.raises(ValueError):
        paths_to_cycle_vertex(g, CycleDescriptor(("a",), ("e1",)), "a")


def test_path_enumeration_against_walk_oracle():
    rng = random.Random(202)
    for _ in range(200):
        g = random_no_exit_graph(rng)
        info = classify(g)
        for sink in info.sinks:
            assert sorted(paths_to_sink(g, sink)) == naive_paths_to_sink(g, sink)
        for cycle in info.cycles:
            for base in cycle.vertices:
                got = sorted(paths_to_cycle_vertex(g, cycle, base))
                assert got == naive_paths_to_cycle(g, cycle.edges, base)


def test_path_counts_of_a_60_diamond_chain():
    # j0 -> {a1, b1} -> j1 -> ... -> j60: 2^62 - 3 paths end at j60, counted
    # in one table row per vertex
    k = 60
    table = _path_rows(diamond_chain(k), f"j{k}")
    assert len(table) == 3 * k + 1
    joins = {v: (length, count) for length, v, count in table if v.startswith("j")}
    assert joins == {f"j{i}": (2 * (k - i), 2 ** (k - i)) for i in range(k + 1)}
    assert sum(count for _, _, count in table) == 2**62 - 3


def test_paths_sorted_by_length_then_source():
    rng = random.Random(303)
    for _ in range(50):
        g = random_no_exit_graph(rng)
        info = classify(g)
        for sink in info.sinks:
            paths = paths_to_sink(g, sink)
            assert paths == sorted(paths, key=lambda p: (p[1], p[0]))


def test_two_branches_into_one_sink():
    g = DirectedGraph.from_edges([("a", "s"), ("b", "s")])
    assert paths_to_sink(g, "s") == [("s", 0), ("a", 1), ("b", 1)]


def test_no_exit_cycle_vertices_have_out_degree_one():
    rng = random.Random(313)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        degree = out_degrees(g)
        for cycle in classify(g).cycles:
            for v in cycle.vertices:
                assert degree[v] == 1


def test_paths_to_cycle_lengths_bounded():
    # a path that avoids repeating the cycle uses each off-cycle vertex at
    # most once and at most length-1 arcs of the cycle itself
    rng = random.Random(317)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        for cycle in classify(g).cycles:
            bound = len(g.vertices) - 1 + cycle.length - 1
            for _, length in paths_to_cycle_vertex(g, cycle, cycle.vertices[0]):
                assert length <= bound


def test_builders():
    assert build_line(1).vertices == ("v1",)
    assert len(build_cycle_tail(1).edges) == 1
    with pytest.raises(ValueError):
        build_line(0)
    with pytest.raises(ValueError):
        build_cycle_tail(0)


# names whose sorted order differs from the order of first mention
ID_NAMES = ["v10", "v9", "Z", "a", "_x", "_", "v1", "v100", "A", "aa", "b_2", "b10", "B", "x", "X1", "v99"]
ID_NAMES += [f"n{i}" for i in range(40 - len(ID_NAMES))]


@st.composite
def named_multigraphs(draw):
    """Multigraphs of up to 40 vertices with parallel edges, loops and
    isolated vertices; half of them no-exit: disjoint cycles fed by an
    acyclic part."""
    n = draw(st.integers(1, 40))
    names = draw(st.permutations(ID_NAMES))[:n]
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n + 8))
    else:
        on_cycles = draw(st.integers(0, min(n, 12)))
        pairs = []
        start = 0
        while start < on_cycles:
            length = draw(st.integers(1, on_cycles - start))
            pairs += [(start + j, start + (j + 1) % length) for j in range(length)]
            start += length
        # every other vertex points only at vertices before it
        for i in range(on_cycles, n):
            pairs += [(i, t) for t in draw(st.lists(st.integers(0, i - 1), max_size=3))] if i else []
        pairs = draw(st.permutations(pairs))
    return DirectedGraph.from_edges([(names[a], names[b]) for a, b in pairs], isolated=names)



def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # compared by class and message
        return type(exc).__name__, str(exc)


def _algebra(cycle, table):
    base = GradedBase.trivial() if cycle is None else GradedBase.laurent(cycle.length)
    return ShiftedMatrixAlgebra(base, [(length, count) for length, _, count in table])


def _represent_at(g, choice):
    rep = represent_at(g, choice)
    rows = [(getattr(p, "cycle", None), getattr(p, "base_vertex", None) or p.sink, list(p.rows)) for p in rep.provenance]
    return str(rep.sum), rows


def _naive_represent_at(g, choice):
    tables = naive_summand_counts(g, choice)
    return " (+) ".join(str(_algebra(cycle, table)) for cycle, _, table in tables), tables


def _naive_corner(g, vs):
    chosen = set(vs)
    tables = naive_summand_counts(g, {})
    unknown = chosen - set(g.vertices)
    if unknown:
        raise UnknownVertexError(f"unknown vertices: {sorted(unknown)}")
    kept = [(cycle, [row for row in table if row[1] in chosen]) for cycle, _, table in tables]
    summands = [str(_algebra(cycle, rows)) for cycle, rows in kept if rows]
    if not summands:
        raise ZeroCornerError("no path in any summand starts in the chosen vertex set")
    return " (+) ".join(summands)


@settings(max_examples=250)
@given(named_multigraphs(), st.data())
def test_id_passes_match_definitions(g, data):
    _check_peel_and_sccs(g)
    info = classify(g)
    assert info == naive_classify(g)
    # a no-exit graph's cycles are its cyclic components' one cycle each
    cycles = info.cycles if info.no_exit else ()
    for sink in info.sinks:
        assert _outcome(_path_rows, g, sink) == _outcome(naive_path_counts, g, sink)
    for cycle in cycles:
        for base in cycle.vertices:
            assert _path_rows(g, base, cycle) == naive_path_counts(g, base, cycle)
    # base choices: on the cycle, off it, or keyed by a foreign cycle; the
    # exit error names the least cycle vertex not emitting one edge
    choice = {}
    for cycle in cycles:
        if data.draw(st.booleans()):
            choice[cycle] = data.draw(st.sampled_from(cycle.vertices + g.vertices[:1]))
    if data.draw(st.integers(0, 9)) == 0:
        choice[CycleDescriptor(("foreign",), ("e0",))] = "foreign"
    assert _outcome(_represent_at, g, choice) == _outcome(_naive_represent_at, g, choice)
    # corners at random vertex sets, some empty or with an unknown vertex
    for _ in range(3):
        vs = data.draw(st.lists(st.sampled_from(g.vertices + ("nope",)), max_size=6))
        assert _outcome(lambda: str(corner_by_vertices(g, vs))) == _outcome(_naive_corner, g, vs)
