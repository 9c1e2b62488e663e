import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradedlpa.graphs
from gradedlpa.cli import main
from conftest import diamond_chain, naive_paths_to_cycle, naive_paths_to_sink, random_no_exit_graph
from gradedlpa import (
    DirectedGraph,
    EmptyGraphError,
    GradedBase,
    ShiftedMatrixAlgebra,
    canonical_form,
    is_graded_isomorphic,
    is_realizable,
    is_realizable_sum,
    parse_algebra,
    parse_graph,
    NotNoExitError,
    VertexNotOnCycleError,
    ZeroCornerError,
    build_cycle_tail,
    build_line,
    classify,
    corner_by_indices,
    corner_by_vertices,
    direct_sum_iso,
    find_cycles,
    format_graph,
    graph_to_dot,
    paths_to_cycle_vertex,
    paths_to_sink,
    represent,
    represent_at,
    synthesize,
    synthesize_sum,
)
from gradedlpa.algebras import _class_key


def ex_comet():
    # t feeds a 2-cycle u <-> v
    return DirectedGraph.from_edges([("t", "u"), ("u", "v"), ("v", "u")])


def test_comet_default_base():
    rep = represent(ex_comet())
    assert str(rep.sum) == "M3(K[x^2])(0,1,1)"
    prov = rep.provenance[0]
    assert prov.base_vertex == "u"
    assert list(prov.paths) == [("u", 0), ("t", 1), ("v", 1)]


def test_comet_other_base():
    g = ex_comet()
    cycle = classify(g).cycles[0]
    rep = represent_at(g, {cycle: "v"})
    assert str(rep.sum) == "M3(K[x^2])(0,1,2)"


def test_line_graphs():
    for n in range(1, 8):
        rep = represent(build_line(n))
        summand = rep.sum.summands[0]
        assert len(rep.sum.summands) == 1
        assert summand.base.is_trivial
        assert summand.shifts == tuple(range(n))


def test_cycle_tail_graphs():
    for n in range(1, 8):
        rep = represent(build_cycle_tail(n))
        summand = rep.sum.summands[0]
        assert summand.base == GradedBase.laurent(1)
        assert summand.shifts == tuple(range(n))


def test_c3_cycle():
    g = DirectedGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    rep = represent(g)
    assert str(rep.sum) == "M3(K[x^3])(0,1,2)"


def test_isolated_vertex_is_a_sink():
    rep = represent(DirectedGraph((), ()).from_edges([], isolated=("w",)))
    assert str(rep.sum) == "M1(K)(0)"
    assert rep.provenance[0].sink == "w"


def test_summand_order_sinks_then_cycles():
    # two sinks (s1, a2) and two cycles anchored at c and k
    g = DirectedGraph.from_edges(
        [
            ("x", "s1"),
            ("y", "a2"),
            ("k", "k"),
            ("c", "d"),
            ("d", "c"),
            ("t", "c"),
        ]
    )
    rep = represent(g)
    kinds = [
        (p.sink if hasattr(p, "sink") else p.cycle.vertices[0]) for p in rep.provenance
    ]
    assert kinds == ["a2", "s1", "c", "k"]
    assert [a.base.is_trivial for a in rep.sum.summands] == [True, True, False, False]


def test_error_cases():
    with pytest.raises(EmptyGraphError):
        represent(DirectedGraph((), ()))
    rose = DirectedGraph.from_edges([("v", "v"), ("v", "v")])
    with pytest.raises(NotNoExitError):
        represent(rose)


def test_many_disjoint_loops():
    # more cycles than classify's cap; represent enumerates none
    g = DirectedGraph.from_edges([(f"v{i}", f"v{i}") for i in range(10_001)])
    rep = represent(g)
    assert len(rep.sum.summands) == 10_001
    assert all(a.base == GradedBase.laurent(1) and a.shifts == (0,) for a in rep.sum.summands)


def test_complete_graph_names_exit_vertex():
    names = [f"v{i}" for i in range(8)]
    k8 = DirectedGraph.from_edges([(x, y) for x in names for y in names if x != y])
    with pytest.raises(NotNoExitError, match="cycle vertex 'v0' emits 7 edges"):
        represent(k8)


def test_one_scc_pass_per_graph(monkeypatch):
    original = gradedlpa.graphs._scc_pass
    calls = []

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(gradedlpa.graphs, "_scc_pass", counting)
    star = DirectedGraph.from_edges([("c", f"s{i}") for i in range(400)])
    classify(star)
    represent(star)
    corner_by_vertices(star, ["c"])
    assert len(calls) == 1
    # a graph that is not no-exit: find_cycles reads the same components
    names = [f"v{i}" for i in range(5)]
    k5 = DirectedGraph.from_edges([(x, y) for x in names for y in names if x != y])
    assert len(classify(k5).cycles) == 84
    assert len(calls) == 2


@pytest.mark.parametrize("shape", ["line", "star", "looped_line", "comets", "k5"])
@pytest.mark.parametrize("build", ["parse_graph", "from_edges"])
def test_whole_graph_passes_build_no_edge(monkeypatch, shape, build):
    def no_edge(*args):
        raise AssertionError("an Edge tuple was built")

    no_edge._make = no_edge
    monkeypatch.setattr(gradedlpa.graphs, "Edge", no_edge)
    line = [(f"v{i}", f"v{i + 1}") for i in range(1, 10_000)]
    # pairs, vertices for a corner, sinks, cycles, paths over all summands
    pairs, chosen, sinks, cycles, paths = {
        "line": (line, ["v1", "v5000"], 1, 0, 10_000),
        "star": ([("c", f"s{i}") for i in range(400)], ["c", "s7"], 400, 0, 800),
        "looped_line": (line + [("v10000", "v10000")], ["v1", "v5000"], 0, 1, 10_000),
        "comets": ([(f"{v}{i}", f"c{i}") for i in range(400) for v in "tc"], ["t7", "c399"], 0, 400, 800),
        "k5": ([(x, y) for x in "abcde" for y in "abcde" if x != y], None, 0, 84, None),
    }[shape]
    # a copy through the other route, naming every edge e<position>
    named = [(a, b, f"e{pos}") for pos, (a, b) in enumerate(pairs, 1)]
    if build == "parse_graph":
        g = parse_graph("".join(f"{a} -> {b}\n" for a, b in pairs))
        copy = DirectedGraph.from_edges(named)
    else:
        g = DirectedGraph.from_edges(pairs)
        copy = parse_graph("".join(f"{a} -> {b} {eid}\n" for a, b, eid in named))
    # on K_5, which has exits, classify lists every cycle through find_cycles
    info = classify(g)
    assert (info.no_exit, len(info.sinks), len(info.cycles)) == (shape != "k5", sinks, cycles)
    assert find_cycles(g) == list(info.cycles)
    if shape != "k5":
        rep = represent(g)
        assert sum(a.n for a in rep.sum.summands) == paths
        assert corner_by_vertices(g, chosen).summands
    if shape in ("looped_line", "comets"):
        cycle = info.cycles[-1]
        assert len(paths_to_cycle_vertex(g, cycle, cycle.vertices[0])) == paths // cycles
    # equality and hashing read the id columns
    assert g == copy and hash(g) == hash(copy)
    assert "edges" not in vars(g) and "edges" not in vars(copy)


def test_write_path_builds_no_edge(monkeypatch, tmp_path):
    # synthesis and the text, JSON and DOT writers read the id columns
    def no_edge(*args):
        raise AssertionError("an Edge tuple was built")

    no_edge._make = no_edge
    monkeypatch.setattr(gradedlpa.graphs, "Edge", no_edge)
    built = []
    real_build = DirectedGraph._from_columns.__func__

    def build(cls, *args):
        built.append(real_build(cls, *args))
        return built[-1]

    monkeypatch.setattr(DirectedGraph, "_from_columns", classmethod(build))
    monkeypatch.chdir(tmp_path)
    mix = "M1(K)(0) (+) M3(K[x^1])(0,0,0) (+) M4(K)(0,1,1,2) (+) M6(K[x^3])(4,2,2,7,0,5)"
    graphs = [
        synthesize(parse_algebra("M6(K[x^3])(4,2,2,7,0,5)").summands[0]),
        synthesize(parse_algebra("M7(K)(0,1,1,2,3,3,3)").summands[0]),
        synthesize_sum(parse_algebra(mix)),
        parse_graph("vertex t\nt -> u\nu -> v\nv -> u x\n"),  # two unnamed edges
    ]
    for g in graphs:
        format_graph(g)
        graph_to_dot(g)
    for argv in (
        ["synthesize", mix],
        ["--json", "synthesize", mix],
        ["synthesize", "--dot", mix],
        ["--json", "synthesize", "--dot", mix],
        ["synthesize", "-o", "witness.graph", mix],
        ["--json", "synthesize", "-o", "witness.graph", mix],
        ["emit-dot", "witness.graph"],
        ["--json", "emit-dot", "witness.graph"],
    ):
        assert main(argv) == 0
    assert len(built) == 12
    assert not [g for g in built if "edges" in vars(g)]


def test_one_path_count_per_summand(monkeypatch):
    original = gradedlpa.graphs._path_counts
    calls = []  # per counting pass, the names of the ends it walked

    def counting(g, ends, cycles):
        ends = list(ends)
        calls.append([g.vertices[end] for end in ends])
        return original(g, ends, cycles)

    monkeypatch.setattr(gradedlpa.graphs, "_path_counts", counting)
    star = DirectedGraph.from_edges([("c", f"s{i}") for i in range(400)])
    classify(star)
    represent(star)
    for vs in (["c"], ["s1", "s7"], ["c", "s399"]):
        corner_by_vertices(star, vs)
    # one pass over every sink, shared by represent and the corners
    assert calls == [sorted(f"s{i}" for i in range(400))]
    # paths_to_sink counts its own sink's table, and only that one
    assert paths_to_sink(star, "s42") == [("s42", 0), ("c", 1)]
    assert calls[1:] == [["s42"]]
    calls.clear()
    assert paths_to_sink(DirectedGraph.from_edges([("c", f"s{i}") for i in range(400)]), "s7") == [("s7", 0), ("c", 1)]
    assert calls == [["s7"]]
    # the whole-graph passes read the id index; no Edge tuple is built
    assert "edges" not in vars(star)
    # a base choice away from the default counts that one summand anew
    calls.clear()
    comet = ex_comet()
    cycle = represent(comet).provenance[0].cycle
    assert calls == [["u"]]
    assert represent_at(comet, {cycle: "v"}).provenance[0].base_vertex == "v"
    assert calls == [["u"], ["v"]]
    represent_at(comet, {cycle: "u"})
    corner_by_vertices(comet, ["t"])
    assert len(calls) == 2


def test_represent_at_validates_choice():
    g = ex_comet()
    cycle = classify(g).cycles[0]
    with pytest.raises(VertexNotOnCycleError):
        represent_at(g, {cycle: "t"})
    other = classify(build_cycle_tail(2)).cycles[0]
    with pytest.raises(ValueError):
        represent_at(g, {other: "v2"})


def test_provenance_matches_path_enumeration():
    rng = random.Random(43)
    for _ in range(150):
        g = random_no_exit_graph(rng)
        info = classify(g)
        rep = represent(g)
        assert len(rep.sum.summands) == len(info.sinks) + len(info.cycles)
        for summand, prov in zip(rep.sum.summands, rep.provenance):
            if hasattr(prov, "sink"):
                assert summand.base.is_trivial
                assert list(prov.paths) == paths_to_sink(g, prov.sink)
            else:
                assert summand.base == GradedBase.laurent(prov.cycle.length)
                assert prov.base_vertex == prov.cycle.vertices[0]
                assert list(prov.paths) == paths_to_cycle_vertex(g, prov.cycle, prov.base_vertex)
            assert summand.shifts == tuple(sorted(length for _, length in prov.paths))
            assert summand.shifts == tuple(length for _, length in prov.paths)


def test_shift_order_is_path_order():
    # paths listed by length then source; shifts follow that order
    g = DirectedGraph.from_edges([("b", "s"), ("a", "s"), ("q", "a")])
    rep = represent(g)
    assert list(rep.provenance[0].paths) == [("s", 0), ("a", 1), ("b", 1), ("q", 2)]
    assert rep.sum.summands[0].shifts == (0, 1, 1, 2)


def test_isolated_loop():
    g = DirectedGraph.from_edges([("v", "v")])
    rep = represent(g)
    assert str(rep.sum) == "M1(K[x^1])(0)"
    cycle = classify(g).cycles[0]
    assert str(represent_at(g, {cycle: "v"}).sum) == "M1(K[x^1])(0)"


def test_base_vertex_choice_does_not_change_iso_class():
    rng = random.Random(71)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        cycles = classify(g).cycles
        picks = [
            {c: rng.choice(c.vertices) for c in cycles},
            {c: rng.choice(c.vertices) for c in cycles},
        ]
        left = represent_at(g, picks[0])
        right = represent_at(g, picks[1])
        assert direct_sum_iso(left.sum, right.sum)
        assert direct_sum_iso(left.sum, represent(g).sum)


def test_size_accounting():
    rng = random.Random(73)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        info = classify(g)
        rep = represent(g)
        trivial = [a for a in rep.sum.summands if a.base.is_trivial]
        laurent = [a for a in rep.sum.summands if not a.base.is_trivial]
        assert len(trivial) == len(info.sinks)
        assert len(laurent) == len(info.cycles)
        assert sum(a.n for a in rep.sum.summands) == sum(len(p.paths) for p in rep.provenance)


@st.composite
def no_exit_multigraphs(draw):
    """Disjoint cycles, isolated sinks, then vertices whose out-edges run to
    earlier vertices, repeats allowed, so parallel edges occur; names are
    shuffled so that id order differs from construction order."""
    cycle_lengths = draw(st.lists(st.integers(1, 3), min_size=0, max_size=3))
    n_sinks = draw(st.integers(0 if cycle_lengths else 1, 3))
    n_extra = draw(st.integers(0, 5))
    n = sum(cycle_lengths) + n_sinks + n_extra
    names = draw(st.permutations([f"w{i}" for i in range(n)]))
    pairs, pool = [], []
    for length in cycle_lengths:
        cycle = [names[len(pool) + j] for j in range(length)]
        pairs += [(cycle[j], cycle[(j + 1) % length]) for j in range(length)]
        pool += cycle
    pool += names[len(pool) : len(pool) + n_sinks]
    for v in names[len(pool) :]:
        targets = draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
        pairs += [(v, w) for w in targets]
        pool.append(v)
    return DirectedGraph.from_edges(pairs, isolated=names)


def assert_matches_walk_oracle(g, report):
    for summand, prov in zip(report.sum.summands, report.provenance):
        if hasattr(prov, "sink"):
            expected = naive_paths_to_sink(g, prov.sink)
        else:
            expected = naive_paths_to_cycle(g, prov.cycle.edges, prov.base_vertex)
        assert list(prov.paths) == sorted(expected, key=lambda p: (p[1], p[0]))
        assert summand.shifts == tuple(length for _, length in prov.paths)


@settings(max_examples=300)
@given(no_exit_multigraphs(), st.data())
def test_counted_representation_matches_walk_oracle(g, data):
    info = classify(g)
    rep = represent(g)
    assert [p.sink for p in rep.provenance[: len(info.sinks)]] == list(info.sinks)
    assert [p.cycle for p in rep.provenance[len(info.sinks) :]] == list(info.cycles)
    assert_matches_walk_oracle(g, rep)

    choice = {c: data.draw(st.sampled_from(c.vertices)) for c in info.cycles}
    at = represent_at(g, choice)
    assert [p.base_vertex for p in at.provenance[len(info.sinks) :]] == [choice[c] for c in info.cycles]
    assert_matches_walk_oracle(g, at)

    vs = data.draw(st.sets(st.sampled_from(g.vertices)))
    expected = []
    for summand, prov in zip(rep.sum.summands, rep.provenance):
        kept = [i for i, (source, _) in enumerate(prov.paths, 1) if source in vs]
        if kept:
            expected.append(corner_by_indices(summand, kept))
    if expected:
        assert list(corner_by_vertices(g, vs).summands) == expected
    else:
        with pytest.raises(ZeroCornerError):
            corner_by_vertices(g, vs)


def _renamed(g, names):
    new = dict(zip(g.vertices, names)).__getitem__
    return DirectedGraph.from_edges([(new(e.source), new(e.range)) for e in g.edges], isolated=map(new, g.vertices))


def _summand_order(prov):
    """Where a summand goes in a representation: sinks by name, then cycles
    by least vertex."""
    return (0, prov.sink) if hasattr(prov, "sink") else (1, prov.cycle.vertices[0])


@settings(max_examples=200)
@given(no_exit_multigraphs(), no_exit_multigraphs(), st.data())
def test_disjoint_union_represents_as_its_parts(g, h, data):
    # rename g and h apart, g to even and h to odd numbers, each scrambled
    # against its own mention order: the names of g and h alternate in sort
    # order (v0, v1, v10, v11, ...), and the union mentions g's first
    g = _renamed(g, data.draw(st.permutations([f"v{2 * k}" for k in range(len(g.vertices))])))
    h = _renamed(h, data.draw(st.permutations([f"v{2 * k + 1}" for k in range(len(h.vertices))])))
    union = DirectedGraph.from_edges([e[1:] for e in g.edges + h.edges], isolated=g.vertices + h.vertices)
    parts = [represent(g), represent(h)]
    rep = represent(union)
    got = rep.sum.summands
    assert sorted(map(_class_key, got)) == sorted(_class_key(a) for part in parts for a in part.sum.summands)
    # the parts' summands merged in representation order, each unchanged
    merged = sorted((_summand_order(p), a) for part in parts for a, p in zip(part.sum.summands, part.provenance))
    assert [_summand_order(p) for p in rep.provenance] == [key for key, _ in merged]
    assert got == tuple(a for _, a in merged)
    # the paper's easy direction: every represented graph is realizable
    for report in parts + [rep]:
        assert is_realizable_sum(report.sum).ok


def test_sixty_diamond_chain_stays_counted():
    # 2^62 - 3 paths into j60 travel as 121 runs, one per length: l_2i = 2^i,
    # l_2i+1 = 2^(i+1), and l_120 = 2^60 paths from j0
    g = diamond_chain(60)
    rep = represent(g)
    a = rep.sum.summands[0]
    assert a.n == 2**62 - 3
    assert a.runs == tuple((length, 2 ** ((length + 1) // 2)) for length in range(120)) + ((120, 2**60),)
    assert canonical_form(a).mults == tuple(count for _, count in a.runs)
    assert is_realizable(a)
    reordered = ShiftedMatrixAlgebra(a.base, a.runs[::-1])
    assert reordered != a and is_graded_isomorphic(a, reordered)
    assert parse_algebra(str(rep.sum)) == rep.sum
    assert len(rep.provenance[0].rows) == 181
    for listing in (lambda: a.shifts, lambda: rep.provenance[0].paths, lambda: paths_to_sink(g, "j60")):
        with pytest.raises(ValueError, match="too many to list one by one"):
            listing()
