import random

import pytest

from conftest import random_no_exit_graph
from gradedlpa import (
    DirectedGraph,
    EmptyGraphError,
    EmptyIndexSetError,
    GradedBase,
    IndexOutOfRangeError,
    NotNoExitError,
    ShiftedMatrixAlgebra,
    UnknownVertexError,
    ZeroCornerError,
    build_line,
    corner_by_indices,
    corner_by_vertices,
    corner_realizable,
    direct_sum_iso,
    represent,
)

K = GradedBase.trivial()
L = GradedBase.laurent


def alg(base, *shifts):
    return ShiftedMatrixAlgebra.from_shifts(base, shifts)


def test_corner_by_indices():
    a = alg(K, 0, 1, 2)
    assert corner_by_indices(a, [1, 3]) == alg(K, 0, 2)
    assert corner_by_indices(a, [3, 1, 3]) == alg(K, 0, 2)
    assert corner_by_indices(a, [2]) == alg(K, 1)
    assert corner_by_indices(a, range(1, 4)) == a
    assert corner_by_indices(alg(L(2), 0, 1, 1), [2]) == alg(L(2), 1)


def test_corner_by_indices_composes():
    rng = random.Random(79)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = alg(K if rng.random() < 0.5 else L(rng.randint(1, 4)),
                *(rng.randint(-4, 4) for _ in range(n)))
        outer = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        inner = sorted(rng.sample(range(1, len(outer) + 1), rng.randint(1, len(outer))))
        composed = [outer[i - 1] for i in inner]
        assert corner_by_indices(corner_by_indices(a, outer), inner) == corner_by_indices(
            a, composed
        )


def test_corner_by_indices_errors():
    a = alg(K, 0, 1, 2)
    with pytest.raises(EmptyIndexSetError):
        corner_by_indices(a, [])
    with pytest.raises(IndexOutOfRangeError):
        corner_by_indices(a, [0, 1])
    with pytest.raises(IndexOutOfRangeError):
        corner_by_indices(a, [4])


def line_uvw():
    return DirectedGraph.from_edges([("u", "v"), ("v", "w")])


def test_corner_by_vertices_line():
    corner = corner_by_vertices(line_uvw(), ["u", "w"])
    assert str(corner) == "M2(K)(0,2)"
    verdict = corner_realizable(line_uvw(), ["u", "w"])
    assert not verdict.ok
    assert verdict.failures[0][1].failing_index == 1
    assert str(corner_by_vertices(line_uvw(), ["u", "v", "w"])) == "M3(K)(0,1,2)"


def test_corner_realizable_line_subsets():
    assert corner_realizable(line_uvw(), ["w"]).ok
    good = corner_by_vertices(line_uvw(), ["v", "w"])
    assert str(good) == "M2(K)(0,1)"
    assert corner_realizable(line_uvw(), ["v", "w"]).ok


def test_corner_by_vertices_comet():
    g = DirectedGraph.from_edges([("t", "u"), ("u", "v"), ("v", "u")])
    corner = corner_by_vertices(g, ["u", "v"])
    assert str(corner) == "M2(K[x^2])(0,1)"


def test_corner_by_vertices_errors():
    with pytest.raises(UnknownVertexError):
        corner_by_vertices(line_uvw(), ["u", "nope"])
    with pytest.raises(ZeroCornerError):
        corner_by_vertices(line_uvw(), [])


def test_corner_by_vertices_error_order():
    # the graph is checked before the vertex set, an unknown vertex before a zero corner
    names = [f"v{i}" for i in range(8)]
    k8 = DirectedGraph.from_edges([(x, y) for x in names for y in names if x != y])
    with pytest.raises(NotNoExitError, match="cycle vertex 'v0' emits 7 edges"):
        corner_by_vertices(k8, ["v0", "nope"])
    with pytest.raises(EmptyGraphError):
        corner_by_vertices(DirectedGraph((), ()), ["nope"])
    with pytest.raises(UnknownVertexError):
        corner_by_vertices(line_uvw(), ["nope"])


def test_corner_drops_untouched_summands():
    g = DirectedGraph.from_edges([("a", "s1"), ("b", "s2")])
    corner = corner_by_vertices(g, ["a"])
    assert len(corner.summands) == 1
    assert corner.summands[0] == alg(K, 1)


def test_full_vertex_corner_is_whole_algebra():
    rng = random.Random(61)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        corner = corner_by_vertices(g, g.vertices)
        assert direct_sum_iso(corner, represent(g).sum)
        assert [str(a) for a in corner.summands] == [str(a) for a in represent(g).sum.summands]


def test_every_single_vertex_corner_exists():
    # every vertex sources at least one path, so no single vertex corner is zero
    rng = random.Random(67)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        for v in g.vertices:
            corner = corner_by_vertices(g, [v])
            assert corner.summands


def test_line_single_vertex_corners():
    g = build_line(3)
    for i, v in enumerate(("v1", "v2", "v3")):
        corner = corner_by_vertices(g, [v])
        assert corner.summands[0] == alg(K, 2 - i)


def test_corner_by_vertices_matches_summand_wise_indices():
    rng = random.Random(83)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        vs = {v for v in g.vertices if rng.random() < 0.5}
        report = represent(g)
        expected = []
        for summand, prov in zip(report.sum.summands, report.provenance):
            kept = [pos for pos, (source, _) in enumerate(prov.paths, 1) if source in vs]
            if kept:
                expected.append(corner_by_indices(summand, kept))
        if not expected:
            with pytest.raises(ZeroCornerError):
                corner_by_vertices(g, vs)
            continue
        assert list(corner_by_vertices(g, vs).summands) == expected
