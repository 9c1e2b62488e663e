import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_scc,
    diamond_chain,
    naive_classify,
    naive_paths_to_cycle,
    naive_paths_to_sink,
    random_no_exit_graph,
)
from gradedlpa import (
    CycleDescriptor,
    DirectedGraph,
    NotASinkError,
    NotNoExitError,
    TooManyCyclesError,
    UnknownVertexError,
    VertexNotOnCycleError,
    build_cycle_tail,
    build_line,
    classify,
    find_cycles,
    paths_to_cycle_vertex,
    paths_to_sink,
    strongly_connected_components,
)
from gradedlpa.graphs import _path_counts


def test_from_edges_order_and_auto_ids():
    g = DirectedGraph.from_edges([("b", "a"), ("a", "c", "loop")], isolated=("z", "a"))
    assert g.vertices == ("b", "a", "c", "z")
    assert [e.eid for e in g.edges] == ["e1", "loop"]
    assert g.out_degree("b") == 1
    assert [e.eid for e in g.in_edges("c")] == ["loop"]


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        DirectedGraph(("a", "a"), ())
    with pytest.raises(ValueError):
        DirectedGraph(("a",), (("e1", "a", "b"),))
    with pytest.raises(ValueError):
        DirectedGraph.from_edges([("a", "b", "e"), ("b", "a", "e")])


def test_require_vertex():
    g = build_line(2)
    with pytest.raises(UnknownVertexError):
        g.out_edges("nope")


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


def test_find_cycles_cap():
    # 2^5 cycles through five doubled links
    pairs = []
    for i in range(5):
        pairs.append((f"v{i}", f"v{i+1}"))
        pairs.append((f"v{i}", f"v{i+1}"))
    pairs.append(("v5", "v0"))
    g = DirectedGraph.from_edges(pairs)
    assert len(find_cycles(g)) == 32
    with pytest.raises(TooManyCyclesError):
        find_cycles(g, cap=31)


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
    # z floats next to a cycle in the same component via an edge from the
    # cycle viewpoint? no: z -> cycle keeps the comet, cycle component plus
    # separate sink component breaks it
    g = DirectedGraph.from_edges([("a", "a"), ("t", "a")])
    assert classify(g).comet_per_component
    h = DirectedGraph.from_edges([("a", "a")], isolated=("lonely",))
    assert not classify(h).comet_per_component


def test_classify_empty_graph():
    info = classify(DirectedGraph((), ()))
    assert info.acyclic and info.no_exit and info.comet_per_component


def test_classify_matches_definition_on_small_multigraphs():
    # every multigraph on up to 3 vertices with edge multiplicity up to 2
    count = 0
    for n in range(4):
        names = [f"v{i}" for i in range(n)]
        pairs = list(itertools.product(names, repeat=2))
        for mults in itertools.product(range(3), repeat=len(pairs)):
            edges = [pair for pair, m in zip(pairs, mults) for _ in range(m)]
            g = DirectedGraph.from_edges(edges, isolated=names)
            assert classify(g) == naive_classify(g)
            count += 1
    assert count == 19_768


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
    table = _path_counts(diamond_chain(k), f"j{k}")
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
        for cycle in classify(g).cycles:
            for v in cycle.vertices:
                assert g.out_degree(v) == 1


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

