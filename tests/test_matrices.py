import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_unit, naive_components, naive_conjugate, random_base, random_certificate, random_matrix
from gradedlpa import (
    EntryShift,
    GlobalShift,
    GradedBase,
    GradedMatrix,
    InvalidStepError,
    LaurentElement,
    Permute,
    ShapeMismatchError,
    apply_certificate,
    conjugate_by_certificate,
    conjugate_by_step,
    homogeneous_components,
    multiply,
)

K = GradedBase.trivial()
L = GradedBase.laurent


def test_laurent_element_basics():
    x = LaurentElement.monomial(3)
    assert x.items() == ((3, 1),)
    assert not LaurentElement()
    assert LaurentElement({2: 0}) == LaurentElement()
    assert hash(LaurentElement({1: 2})) == hash(LaurentElement({1: 2}))


def test_laurent_element_int_mixing():
    with pytest.raises(ValueError):
        LaurentElement({0: "a"})


def test_graded_matrix_validation():
    GradedMatrix(L(2), (0, 1), ((LaurentElement({2: 1}), 0), (0, 0)))
    with pytest.raises(ValueError):
        GradedMatrix(K, (0, 1), ((LaurentElement({2: 1}), 0), (0, 0)))
    with pytest.raises(ValueError):
        GradedMatrix(L(2), (0, 1), ((LaurentElement({3: 1}), 0), (0, 0)))
    with pytest.raises(ValueError):
        GradedMatrix(K, (0, 1), ((0, 0),))


def test_identity_and_zero():
    e = GradedMatrix.identity(K, (0, 5))
    z = GradedMatrix.zero(K, (0, 5))
    assert e + z == e
    m = random_matrix(random.Random(1), K, (0, 5))
    assert multiply(e, m) == m and multiply(m, e) == m
    # diagonal entries sit in degree 0 whatever the shifts are
    assert homogeneous_components(e) == {0: e}
    assert homogeneous_components(z) == {}


def test_matrix_unit_products():
    shifts = (0, 1, 2)
    e12 = matrix_unit(K, shifts, 1, 2)
    e23 = matrix_unit(K, shifts, 2, 3)
    assert multiply(e12, e23) == matrix_unit(K, shifts, 1, 3)
    assert multiply(e23, e12) == GradedMatrix.zero(K, shifts)


def test_add_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        GradedMatrix.zero(K, (0,)) + GradedMatrix.zero(K, (0, 0))
    with pytest.raises(ShapeMismatchError):
        multiply(GradedMatrix.zero(K, (0, 1)), GradedMatrix.zero(K, (0, 2)))


def test_matrix_unit_degree():
    u = matrix_unit(L(2), (0, 1, 1), 1, 2, LaurentElement.monomial(2))
    comps = homogeneous_components(u)
    # degree = 2 + shift_1 - shift_2 = 1
    assert list(comps) == [1]


def test_homogeneous_components_partition():
    rng = random.Random(23)
    for _ in range(200):
        base = random_base(rng)
        n = rng.randint(1, 4)
        shifts = tuple(rng.randint(-4, 4) for _ in range(n))
        m = random_matrix(rng, base, shifts)
        comps = homogeneous_components(m)
        total = GradedMatrix.zero(base, shifts)
        for degree, part in comps.items():
            for i in range(n):
                for j in range(n):
                    for e, _ in part.entries[i][j].items():
                        assert e + shifts[i] - shifts[j] == degree
            total = total + part
        assert total == m


def test_conjugation_is_multiplicative():
    rng = random.Random(29)
    for _ in range(200):
        base = random_base(rng)
        n = rng.randint(1, 4)
        shifts = tuple(rng.randint(-3, 3) for _ in range(n))
        a = random_matrix(rng, base, shifts)
        b = random_matrix(rng, base, shifts)
        for step in random_certificate(rng, base, n, length=3):
            fa, fb = conjugate_by_step(a, step), conjugate_by_step(b, step)
            assert conjugate_by_step(multiply(a, b), step) == multiply(fa, fb)
            assert conjugate_by_step(a + b, step) == fa + fb
            ident = GradedMatrix.identity(base, shifts)
            assert conjugate_by_step(ident, step) == GradedMatrix.identity(base, fa.shifts)


def test_conjugation_tracks_shifts():
    rng = random.Random(31)
    for _ in range(200):
        base = random_base(rng)
        n = rng.randint(1, 4)
        shifts = tuple(rng.randint(-3, 3) for _ in range(n))
        cert = random_certificate(rng, base, n)
        m = conjugate_by_certificate(random_matrix(rng, base, shifts), cert)
        assert m.shifts == apply_certificate(shifts, cert, base)


def test_conjugation_moves_components_degree_to_degree():
    rng = random.Random(37)
    for _ in range(200):
        base = random_base(rng)
        n = rng.randint(1, 4)
        shifts = tuple(rng.randint(-3, 3) for _ in range(n))
        m = random_matrix(rng, base, shifts)
        for step in random_certificate(rng, base, n, length=3):
            before = homogeneous_components(m)
            image = conjugate_by_step(m, step)
            after = homogeneous_components(image)
            assert set(before) == set(after)
            for degree, part in before.items():
                assert conjugate_by_step(part, step) == after[degree]
            m = image


def test_permute_conjugation_example():
    m = matrix_unit(K, (0, 7), 1, 2)
    out = conjugate_by_step(m, Permute((2, 1)))
    assert out.shifts == (7, 0)
    assert out.entries[1][0] == m.entries[0][1]


def test_entry_shift_conjugation_example():
    # column 2 picks up x^{+2}, and the shift grows in step, so the
    # component degree 2 + 0 - 1 = 4 + 0 - 3 = 1 stays put
    m = matrix_unit(L(2), (0, 1), 1, 2, LaurentElement.monomial(2))
    out = conjugate_by_step(m, EntryShift(2, 2))
    assert out.shifts == (0, 3)
    assert out.entries[0][1] == LaurentElement.monomial(4)
    assert homogeneous_components(m).keys() == homogeneous_components(out).keys()
    # shifting index 1 instead divides row 1 by x^2: the entry flattens to x^0
    out = conjugate_by_step(m, EntryShift(1, 2))
    assert out.shifts == (2, 1)
    assert out.entries[0][1] == LaurentElement.monomial(0)
    assert homogeneous_components(out).keys() == {1}


def test_component_products_respect_degrees():
    rng = random.Random(43)
    for _ in range(60):
        base = random_base(rng)
        n = rng.randint(1, 3)
        shifts = tuple(rng.randint(-3, 3) for _ in range(n))
        left = homogeneous_components(random_matrix(rng, base, shifts))
        right = homogeneous_components(random_matrix(rng, base, shifts))
        for d1, p1 in left.items():
            for d2, p2 in right.items():
                product = homogeneous_components(multiply(p1, p2))
                assert set(product) <= {d1 + d2}


def test_global_shift_conjugation_keeps_entries():
    m = random_matrix(random.Random(41), L(3), (0, 1))
    out = conjugate_by_step(m, GlobalShift(4))
    assert out.entries == m.entries and out.shifts == (4, 5)


def test_conjugation_rejects_invalid_step():
    # the replay refuses exactly as apply_certificate does on the same shifts and step
    cases = [
        (K, EntryShift(1, 1), InvalidStepError),
        (K, Permute((1, 2, 3)), InvalidStepError),
        (K, "G 1", TypeError),
        (L(2), EntryShift(3, 2), InvalidStepError),
        (L(2), EntryShift(1, 1), InvalidStepError),
        (L(2), Permute((1,)), InvalidStepError),
    ]
    for base, step, error in cases:
        m = GradedMatrix.zero(base, (0, 1))
        with pytest.raises(error) as replayed:
            conjugate_by_step(m, step)
        with pytest.raises(error) as applied:
            apply_certificate(m.shifts, [step], base)
        assert type(replayed.value) is type(applied.value) is error
        assert str(replayed.value) == str(applied.value)


@st.composite
def matrices_and_steps(draw):
    """A matrix over K or K[x^m] (m <= 4) of size n <= 5 whose cells hold up to
    three monomials, so one cell can reach several degrees, and up to four
    valid steps."""
    base = draw(st.one_of(st.just(K), st.integers(1, 4).map(L)))
    n = draw(st.integers(1, 5))
    shifts = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    degrees = st.integers(-3, 3).map(lambda k: base.period * k) if base.is_laurent else st.just(0)
    cell = st.dictionaries(degrees, st.integers(-9, 9), max_size=3).map(LaurentElement)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    steps = [st.permutations(range(1, n + 1)).map(lambda p: Permute(tuple(p))), st.integers(-5, 5).map(GlobalShift)]
    if base.is_laurent:
        steps.append(st.builds(EntryShift, st.integers(1, n), degrees))
    return GradedMatrix(base, shifts, rows), draw(st.lists(st.one_of(*steps), max_size=4))


def dense(components):
    return {degree: (part.shifts, part.entries) for degree, part in components.items()}


@settings(max_examples=300)
@given(matrices_and_steps())
def test_term_storage_matches_dense_oracles(case):
    matrix, steps = case
    for step in steps:
        parts = homogeneous_components(matrix)
        assert dense(parts) == dense(naive_components(matrix))
        assert list(parts) == sorted(parts)
        image = conjugate_by_step(matrix, step)
        oracle = naive_conjugate(matrix, step)
        assert (image.shifts, image.entries) == (oracle.shifts, oracle.entries)
        assert image == oracle and hash(image) == hash(oracle)
        matrix = image
    assert dense(homogeneous_components(matrix)) == dense(naive_components(matrix))


def test_components_and_conjugation_touch_only_terms():
    # one term of a 3000x3000 matrix; a dense grid per degree has 9M cells
    unit = matrix_unit(L(2), range(3000), 1, 2, LaurentElement.monomial(2))
    tracemalloc.start()
    try:
        parts = homogeneous_components(unit)
        image = conjugate_by_step(unit, EntryShift(2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert list(parts) == [1] and parts[1] == unit
    assert image.shifts[:3] == (0, 3, 2)
    moved = matrix_unit(L(2), image.shifts, 1, 2, LaurentElement.monomial(4))
    assert homogeneous_components(image) == {1: moved}
