import random

import pytest

from conftest import random_certificate, random_realizable_summand
from gradedlpa import (
    DirectedGraph,
    DirectSumAlgebra,
    GradedBase,
    NotRealizableError,
    ShiftedMatrixAlgebra,
    apply_certificate,
    classify,
    direct_sum_iso,
    is_realizable,
    is_realizable_sum,
    represent,
    synthesize,
    synthesize_sum,
)
from gradedlpa import realize

K = GradedBase.trivial()
L = GradedBase.laurent


def alg(base, *shifts):
    return ShiftedMatrixAlgebra.from_shifts(base, shifts)


def test_trivial_verdicts():
    assert is_realizable(alg(K, 0, 1)).ok
    assert is_realizable(alg(K, 5)).ok
    assert is_realizable(alg(K, 3, 4, 4, 5)).ok

    doubled = is_realizable(alg(K, 0, 0))
    assert not doubled.ok and doubled.failing_index == 0
    assert "l_0" in doubled.reason

    gap = is_realizable(alg(K, 0, 2))
    assert not gap.ok and gap.failing_index == 1
    assert str(gap) == "no: l_1 = 0: a path of length 2 to the sink forces one of length 1"


def test_cyclic_verdicts():
    assert is_realizable(alg(L(1), 7)).ok
    assert is_realizable(alg(L(2), 0, 1)).ok
    assert is_realizable(alg(L(2), 0, 1, 1)).ok
    assert is_realizable(alg(L(3), 5, 1, 2, 0)).ok

    missing = is_realizable(alg(L(2), 0, 0))
    assert not missing.ok and missing.failing_index == 1
    assert "mod 2" in missing.reason

    missing = is_realizable(alg(L(3), 0, 2, 2))
    assert not missing.ok and missing.failing_index == 1


def test_verdict_dunder():
    v = is_realizable(alg(K, 0))
    assert bool(v) and str(v) == "yes"


def test_sum_verdict_positions():
    s = DirectSumAlgebra((alg(K, 0), alg(K, 0, 2), alg(L(2), 0, 0)))
    verdict = is_realizable_sum(s)
    assert not verdict.ok
    assert [pos for pos, _ in verdict.failures] == [2, 3]
    assert not bool(verdict)
    assert is_realizable_sum(DirectSumAlgebra((alg(K, 0),))).ok
    assert is_realizable_sum(DirectSumAlgebra((alg(K, 0, 1, 2), alg(L(2), 0, 1, 1)))).ok
    first_bad = is_realizable_sum(DirectSumAlgebra((alg(K, 0, 2), alg(K, 0))))
    assert [pos for pos, _ in first_bad.failures] == [1]


def test_realizability_is_invariant_under_moves():
    rng = random.Random(47)
    for _ in range(200):
        a = random_realizable_summand(rng)
        cert = random_certificate(rng, a.base, a.n)
        b = ShiftedMatrixAlgebra.from_shifts(a.base, apply_certificate(a.shifts, cert, a.base))
        assert is_realizable(b).ok


def test_synthesize_rejects_unrealizable():
    with pytest.raises(NotRealizableError) as err:
        synthesize(alg(K, 0, 2))
    assert err.value.verdict.failing_index == 1
    with pytest.raises(NotRealizableError):
        synthesize_sum(DirectSumAlgebra((alg(K, 0), alg(L(2), 0, 0))))


def test_synthesize_trivial_shape():
    g = synthesize(alg(K, 0, 1, 1, 2))
    info = classify(g)
    assert info.acyclic and info.no_exit
    assert len(info.sinks) == 1
    rep = represent(g)
    assert rep.sum.summands[0].shifts == (0, 1, 1, 2)


def test_synthesize_cyclic_shape():
    g = synthesize(alg(L(3), 0, 1, 1, 2))
    info = classify(g)
    assert info.no_exit and not info.acyclic
    assert len(info.cycles) == 1 and info.cycles[0].length == 3
    assert info.comet_per_component


def test_synthesize_smallest_witnesses():
    g = synthesize(alg(K, 0))
    assert len(g.vertices) == 1 and len(g.edges) == 0

    # canonical form (1, 2): a 2 cycle with a single extra leaf feeding it
    g = synthesize(alg(L(2), 0, 1, 1))
    info = classify(g)
    assert len(g.vertices) == 3
    assert len(info.cycles) == 1 and info.cycles[0].length == 2
    assert not info.sinks


def test_synthesize_sum_line_plus_comet():
    total = DirectSumAlgebra((alg(K, 0, 1, 2), alg(L(2), 0, 1, 1)))
    g = synthesize_sum(total)
    info = classify(g)
    assert len(g.vertices) == 6
    assert len(info.sinks) == 1 and len(info.cycles) == 1
    assert direct_sum_iso(represent(g).sum, total)


def test_synthesize_round_trip_small():
    cases = [
        alg(K, 0),
        alg(K, 0, 1),
        alg(K, 4, 5, 5, 6, 6, 6),
        alg(L(1), 0),
        alg(L(1), 2, 3, 3),
        alg(L(2), 0, 1),
        alg(L(4), 0, 1, 2, 3, 3),
    ]
    for a in cases:
        rep = represent(synthesize(a))
        assert direct_sum_iso(rep.sum, DirectSumAlgebra((a,)))


def test_synthesize_round_trip_random():
    rng = random.Random(53)
    for _ in range(150):
        a = random_realizable_summand(rng)
        g = synthesize(a)
        info = classify(g)
        assert info.no_exit
        if a.base.is_trivial:
            assert len(info.sinks) == 1 and not info.cycles
        else:
            assert not info.sinks
            assert len(info.cycles) == 1 and info.cycles[0].length == a.base.period
        assert direct_sum_iso(represent(g).sum, DirectSumAlgebra((a,)))


def test_synthesize_sum_round_trip():
    rng = random.Random(59)
    for _ in range(60):
        total = DirectSumAlgebra(
            tuple(random_realizable_summand(rng) for _ in range(rng.randint(1, 4)))
        )
        rep = represent(synthesize_sum(total))
        assert direct_sum_iso(rep.sum, total)


def test_synthesize_sum_builds_one_graph(monkeypatch):
    # realizability is decided once per summand and one graph is built
    decided = []
    built = []
    real_decide = realize.is_realizable
    real_build = DirectedGraph._from_columns.__func__

    def build(cls, *args):
        built.append(args)
        return real_build(cls, *args)

    monkeypatch.setattr(realize, "is_realizable", lambda a: decided.append(a) or real_decide(a))
    monkeypatch.setattr(DirectedGraph, "_from_columns", classmethod(build))
    total = DirectSumAlgebra((alg(K, 0), alg(K, 0, 1, 1, 2), alg(L(2), 0, 1, 1)))
    g = synthesize_sum(total)
    assert (len(decided), len(built)) == (3, 1)
    assert g.vertices == (
        "s2_v1_1", "s2_v0_1", "s2_v1_2", "s2_v2_1", "s3_v1", "s3_v0", "s3_v1_1", "s1_v0_1",
    )
    assert [e.eid for e in g.edges] == ["s2_e1", "s2_e2", "s2_e3", "s3_e1", "s3_e2", "s3_e3"]


def test_synthesize_sum_vertex_names_disjoint():
    total = DirectSumAlgebra((alg(K, 0), alg(K, 0)))
    g = synthesize_sum(total)
    assert len(g.vertices) == 2
    assert len({v for v in g.vertices}) == 2


def test_synthesize_listing_limit():
    # the witness graph has one vertex per shift
    a = ShiftedMatrixAlgebra(K, [(0, 1), (1, 1_000_000)])
    assert is_realizable(a)
    for make in (lambda: synthesize(a), lambda: synthesize_sum(DirectSumAlgebra((a, alg(K, 0))))):
        with pytest.raises(ValueError, match="too many to list one by one"):
            make()
    assert len(synthesize(ShiftedMatrixAlgebra(L(2), [(0, 2), (1, 3)])).vertices) == 5
