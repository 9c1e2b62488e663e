"""Acceptance suite.

Each criterion prints one pass/fail line; all checks are exact integer
comparisons with zero tolerance.  Reachability, rotation minimisation and
graph enumeration on the oracle side are implemented here from scratch so
the library is compared against independent references.
"""

import itertools
import random
from collections import deque
from contextlib import contextmanager

import pytest

from conftest import (
    naive_least_rotation,
    oracle_iso,
    random_certificate,
    random_matrix,
    random_realizable_summand,
)
from gradedlpa import (
    CyclicForm,
    DirectSumAlgebra,
    DirectedGraph,
    GradedBase,
    NotRealizableError,
    ShiftedMatrixAlgebra,
    TrivialForm,
    apply_certificate,
    build_cycle_tail,
    build_line,
    canonical_form,
    classify,
    conjugate_by_step,
    corner_by_vertices,
    corner_realizable,
    direct_sum_iso,
    homogeneous_components,
    is_graded_isomorphic,
    is_realizable,
    iso_certificate,
    multiply,
    represent,
    represent_at,
    synthesize,
    synthesize_sum,
)

K = GradedBase.trivial()
L = GradedBase.laurent


def alg(base, *shifts):
    return ShiftedMatrixAlgebra.from_shifts(base, shifts)


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS")


def test_criterion_1_worked_comet_example(capsys):
    with criterion(capsys, 1, "comet example regression"):
        g = DirectedGraph.from_edges([("t", "u"), ("u", "v"), ("v", "u")])
        cycle = classify(g).cycles[0]
        at_u = represent_at(g, {cycle: "u"}).sum.summands[0]
        at_v = represent_at(g, {cycle: "v"}).sum.summands[0]
        assert at_u == alg(L(2), 0, 1, 1)
        assert at_v == alg(L(2), 0, 1, 2)
        assert is_graded_isomorphic(at_u, at_v)

        cert = iso_certificate(at_u, at_v)
        shifts = at_u.shifts
        for step in cert:
            shifts = apply_certificate(shifts, (step,), at_u.base)
        assert shifts == at_v.shifts

        rng = random.Random(1001)
        for _ in range(25):
            m = random_matrix(rng, at_u.base, at_u.shifts)
            for step in cert:
                before = homogeneous_components(m)
                m = conjugate_by_step(m, step)
                after = homogeneous_components(m)
                assert set(before) == set(after)
                for degree, part in before.items():
                    assert conjugate_by_step(part, step) == after[degree]
            assert m.shifts == at_v.shifts


def test_criterion_2_unrealizable_remark(capsys):
    with criterion(capsys, 2, "gap verdict regression"):
        verdict = is_realizable(alg(K, 0, 2))
        assert not verdict.ok
        assert verdict.failing_index == 1
        with pytest.raises(NotRealizableError):
            synthesize(alg(K, 0, 2))


def test_criterion_3_corner_example(capsys):
    with criterion(capsys, 3, "line corner regression"):
        l3 = DirectedGraph.from_edges([("u", "v"), ("v", "w")])
        corner = corner_by_vertices(l3, ["u", "w"])
        assert len(corner.summands) == 1
        assert corner.summands[0] == alg(K, 0, 2)
        assert not corner_realizable(l3, ["u", "w"]).ok


def test_criterion_4_lines_and_cycle_tails(capsys):
    with criterion(capsys, 4, "L_n and C_n families"):
        for n in range(1, 9):
            line_summand = represent(build_line(n)).sum.summands[0]
            form = canonical_form(line_summand)
            assert form == TrivialForm(n - 1, (1,) * n)
            assert is_realizable(line_summand).ok
            again = represent(synthesize(line_summand)).sum
            assert direct_sum_iso(again, DirectSumAlgebra((line_summand,)))

            tail_summand = represent(build_cycle_tail(n)).sum.summands[0]
            assert canonical_form(tail_summand) == CyclicForm(1, (n,))


# independent reachability oracle: states are sorted shift lists inside a
# fixed window, edges are the global +-1 and single-entry +-m moves


def _neighbors(state, lo, hi, period):
    out = []
    if state[-1] + 1 <= hi:
        out.append(tuple(s + 1 for s in state))
    if state[0] - 1 >= lo:
        out.append(tuple(s - 1 for s in state))
    if period is not None:
        for i, value in enumerate(state):
            for delta in (period, -period):
                v = value + delta
                if lo <= v <= hi:
                    out.append(tuple(sorted(state[:i] + (v,) + state[i + 1 :])))
    return out


def _reachability_components(n, lo, hi, period):
    comp = {}
    label = 0
    for start in itertools.combinations_with_replacement(range(lo, hi + 1), n):
        if start in comp:
            continue
        label += 1
        comp[start] = label
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for t in _neighbors(state, lo, hi, period):
                if t not in comp:
                    comp[t] = label
                    queue.append(t)
    return comp


def test_criterion_5_oracle_equivalence(capsys):
    with criterion(capsys, 5, "oracle equivalence on the exhaustive grid"):
        bases = [K] + [L(m) for m in range(1, 5)]
        bound = 8
        lo, hi = 0 - bound, 3 + bound
        components = {}
        for base in bases:
            for n in range(1, 5):
                comp = _reachability_components(n, lo, hi, base.period)
                components[(base, n)] = comp
                answers = {}
                for a_shifts in itertools.product(range(4), repeat=n):
                    sa = tuple(sorted(a_shifts))
                    for b_shifts in itertools.product(range(4), repeat=n):
                        sb = tuple(sorted(b_shifts))
                        got = answers.get((sa, sb))
                        if got is None:
                            got = is_graded_isomorphic(
                                alg(base, *a_shifts), alg(base, *b_shifts)
                            )
                            answers[(sa, sb)] = got
                        assert got == (comp[sa] == comp[sb])

        # the oracle entry point itself, exhaustively for n <= 2 and sampled above
        for base in bases:
            for n in (1, 2):
                states = list(itertools.combinations_with_replacement(range(4), n))
                for sa in states:
                    for sb in states:
                        a, b = alg(base, *sa), alg(base, *sb)
                        assert oracle_iso(a, b, bound) == is_graded_isomorphic(a, b)
        rng = random.Random(505)
        for base in bases:
            for n, count in ((3, 12), (4, 4)):
                comp = components[(base, n)]
                for _ in range(count):
                    sa = tuple(sorted(rng.randrange(4) for _ in range(n)))
                    sb = tuple(sorted(rng.randrange(4) for _ in range(n)))
                    a, b = alg(base, *sa), alg(base, *sb)
                    got = oracle_iso(a, b, bound)
                    assert got == (comp[sa] == comp[sb])
                    assert got == is_graded_isomorphic(a, b)


def test_criterion_6_canonical_invariance(capsys):
    with criterion(capsys, 6, "canonical form invariance"):
        rng = random.Random(606)
        for _ in range(10_000):
            base = K if rng.random() < 0.4 else L(rng.randint(1, 6))
            n = rng.randint(1, 8)
            shifts = tuple(rng.randint(-5, 5) for _ in range(n))
            a = ShiftedMatrixAlgebra.from_shifts(base, shifts)
            cert = random_certificate(rng, base, n)
            b = ShiftedMatrixAlgebra.from_shifts(base, apply_certificate(shifts, cert, base))
            assert canonical_form(a) == canonical_form(b)


def test_criterion_7_round_trip(capsys):
    with criterion(capsys, 7, "synthesize round trip"):
        rng = random.Random(707)
        for _ in range(1000):
            a = random_realizable_summand(rng)
            total = DirectSumAlgebra((a,))
            assert direct_sum_iso(represent(synthesize_sum(total)).sum, total)
        for _ in range(200):
            total = DirectSumAlgebra(
                tuple(random_realizable_summand(rng) for _ in range(rng.randint(1, 4)))
            )
            assert direct_sum_iso(represent(synthesize_sum(total)).sum, total)


# exhaustive small-graph enumeration for criterion 8; vertex j may only emit
# to earlier vertices, which reaches every iso class in topological labelling


def _multiplicity_vectors(weights, budget):
    """All vectors m >= 0 over the weights with 1 <= sum(m_i * w_i) <= budget."""
    if not weights:
        return
    options = []
    for w in weights:
        options.append(range(0, budget // w + 1))
    for vector in itertools.product(*options):
        cost = sum(m * w for m, w in zip(vector, weights))
        if 1 <= cost <= budget:
            yield vector, cost


def _single_sink_dags(max_vertices, max_paths):
    """Edge lists of every acyclic single-sink graph within both limits."""
    results = []

    def extend(names, path_counts, total, edges):
        results.append(list(edges))
        if len(names) == max_vertices:
            return
        v = f"v{len(names) + 1}"
        budget = max_paths - total
        for vector, cost in _multiplicity_vectors(path_counts, budget):
            new_edges = [
                (v, names[i]) for i, m in enumerate(vector) for _ in range(m)
            ]
            extend(names + [v], path_counts + [cost], total + cost, edges + new_edges)

    extend(["v1"], [1], 1, [])
    return results


def _comets(max_vertices, max_paths):
    """(edge list, cycle length) for every comet within both limits."""
    results = []
    for m in range(1, max_vertices + 1):
        cycle_names = [f"c{i}" for i in range(1, m + 1)]
        cycle_edges = [
            (cycle_names[i], cycle_names[(i + 1) % m]) for i in range(m)
        ]

        def extend(names, path_counts, total, edges):
            results.append((list(edges), m))
            if len(names) == max_vertices:
                return
            v = f"o{len(names) - m + 1}"
            budget = max_paths - total
            for vector, cost in _multiplicity_vectors(path_counts, budget):
                new_edges = [
                    (v, names[i]) for i, m_i in enumerate(vector) for _ in range(m_i)
                ]
                extend(names + [v], path_counts + [cost], total + cost, edges + new_edges)

        # each cycle vertex sources exactly one counted path
        extend(cycle_names, [1] * m, m, cycle_edges)
    return results


def test_criterion_8_exhaustive_small_graphs(capsys):
    with criterion(capsys, 8, "exhaustive small graph classification"):
        achieved_trivial = set()
        for edges in _single_sink_dags(5, 5):
            g = DirectedGraph.from_edges(edges, isolated=("v1",))
            summands = represent(g).sum.summands
            assert len(summands) == 1
            form = canonical_form(summands[0])
            achieved_trivial.add((form.k, form.mults))

        predicted_trivial = set()
        for k in range(0, 5):
            for tail in itertools.product(range(1, 5), repeat=k):
                if 1 + sum(tail) <= 5:
                    predicted_trivial.add((k, (1,) + tail))
        assert predicted_trivial - achieved_trivial == set()
        assert achieved_trivial - predicted_trivial == set()

        achieved_cyclic = set()
        for edges, m in _comets(5, 5):
            g = DirectedGraph.from_edges(edges)
            summands = represent(g).sum.summands
            assert len(summands) == 1
            form = canonical_form(summands[0])
            achieved_cyclic.add((form.period, form.mults))

        predicted_cyclic = set()
        for m in range(1, 6):
            for vector in itertools.product(range(1, 6), repeat=m):
                if sum(vector) <= 5:
                    rot = naive_least_rotation(vector)
                    predicted_cyclic.add((m, vector[rot:] + vector[:rot]))
        assert predicted_cyclic - achieved_cyclic == set()
        assert achieved_cyclic - predicted_cyclic == set()

        # beyond the size cut-off the positivity conditions keep holding
        diamond_tail = DirectedGraph.from_edges(
            [("q", "d"), ("d", "a"), ("d", "b"), ("a", "s"), ("b", "s")]
        )
        form = canonical_form(represent(diamond_tail).sum.summands[0])
        assert form.mults[0] == 1 and all(c >= 1 for c in form.mults)


def test_criterion_9_degree_preservation(capsys):
    with criterion(capsys, 9, "matrix level degree preservation"):
        rng = random.Random(909)
        for _ in range(1000):
            base = K if rng.random() < 0.4 else L(rng.randint(1, 4))
            n = rng.randint(1, 4)
            shifts = tuple(rng.randint(-3, 3) for _ in range(n))
            matrix = random_matrix(rng, base, shifts)
            step = random_certificate(rng, base, n, length=1)[0]

            before = homogeneous_components(matrix)
            image = conjugate_by_step(matrix, step)
            after = homogeneous_components(image)
            assert set(before) == set(after)
            for degree, part in before.items():
                assert conjugate_by_step(part, step) == after[degree]

            degrees = list(before)
            pairs = list(itertools.product(degrees, repeat=2))
            if len(pairs) > 12:
                pairs = [rng.choice(pairs) for _ in range(12)]
            for d1, d2 in pairs:
                product = multiply(before[d1], before[d2])
                assert set(homogeneous_components(product)) <= {d1 + d2}
