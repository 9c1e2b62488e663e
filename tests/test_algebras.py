"""Shifted matrix algebras, class forms, the three moves and graded
isomorphism, each checked against a definition or a brute-force oracle:

- `_least_rotation_index` against the rotation-by-rotation minimum, on every
  short vector and on periodic and repeated-least sequences of 1,000 items
- `CyclicForm`'s least-rotation check against conftest's naive rotation
- `canonical_form` against the dense definition and against the form the
  checking constructor builds from `(k | period, mults)`, with the listing
  limit patched down to 8 entries, on both sides of it
- `apply_certificate` against applying one step at a time by each move's
  definition, on drawn runs of up to 60 `EntryShift`s with invalid entries
- `Permute`'s check against the sorted definition, on near-permutations with
  duplicates, 0, n + 1 and bools
- `is_graded_isomorphic` and `iso_certificate` against move-graph search
  (conftest's `oracle_iso`)
- `direct_sum_iso` against a matching of summands under move-graph search,
  and `is_realizable_sum` against its summands, on drawn sums
- an algebra's runs against its expanded shift list
- each constructor's refusal of a period, shift, count, degree or index that
  is not an int, or is a bool, and its storing an int subclass as the int
- the checks only a direct call reaches, such as `GradedBase.laurent(None)`,
  a malformed `CycleDescriptor` or `GradedMatrix`, a certificate indexed past
  its end, and equality with a foreign type
"""

import itertools
import pickle
import random
from collections import Counter
from contextlib import nullcontext
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    WindowExceededError,
    inverse_step,
    naive_apply_certificate,
    naive_canonical_form,
    naive_least_rotation,
    oracle_iso,
    random_base,
    random_certificate,
    random_realizable_summand,
)
from gradedlpa import (
    CycleDescriptor,
    CyclicForm,
    DirectSumAlgebra,
    EntryShift,
    GlobalShift,
    GradedBase,
    GradedMatrix,
    InvalidStepError,
    LaurentElement,
    NotIsomorphicError,
    Permute,
    ShiftedMatrixAlgebra,
    SumVerdict,
    TrivialForm,
    apply_certificate,
    canonical_form,
    corner_by_indices,
    direct_sum_iso,
    format_certificate,
    is_graded_isomorphic,
    is_realizable,
    is_realizable_sum,
    iso_certificate,
    parse_algebra,
    parse_certificate,
    parse_graph,
)
from gradedlpa import algebras
from gradedlpa.algebras import _Certificate, _class_key, _least_rotation_index


def alg(base, *shifts):
    return ShiftedMatrixAlgebra.from_shifts(base, shifts)


K = GradedBase.trivial()
L = GradedBase.laurent


def test_base_validation_and_str():
    assert str(K) == "K"
    assert str(L(3)) == "K[x^3]"
    assert K.period is None and L(2).period == 2
    with pytest.raises(ValueError):
        L(0)
    with pytest.raises(ValueError):
        GradedBase(period=-1)


# a value of each kind that is not an int, or is a bool, which is one
BAD_INTS = {"float": 2.0, "bool": True, "str": "a", "none": None}


@pytest.mark.parametrize("kind", ["float", "bool", "str"])  # a period of None is K's
def test_base_period_must_be_an_int(kind):
    bad = BAD_INTS[kind]
    for build in (GradedBase, L):
        with pytest.raises(ValueError) as err:
            build(bad)
        assert str(err.value) == f"a Laurent period must be an int, not {bad!r}"
    assert str(L(2)) == "K[x^2]"


@pytest.mark.parametrize("kind", BAD_INTS)
@pytest.mark.parametrize("field", ["shift", "count"])
def test_run_shift_and_count_must_be_ints(field, kind):
    bad = BAD_INTS[kind]
    for base in (K, L(2)):
        run = (bad, 2) if field == "shift" else (0, bad)
        with pytest.raises(ValueError) as err:
            ShiftedMatrixAlgebra(base, [(0, 1), run])
        assert str(err.value) == f"a run's {field} must be an int, not {bad!r}"


@pytest.mark.parametrize("kind", BAD_INTS)
def test_from_shifts_refuses_what_is_not_an_int(kind):
    bad = BAD_INTS[kind]
    for base in (K, L(2)):
        with pytest.raises(ValueError) as err:
            ShiftedMatrixAlgebra.from_shifts(base, (0, bad, 1))
        assert str(err.value) == f"a shift must be an int, not {bad!r}"


def test_algebra_construction():
    a = alg(K, 3, 1, 2)
    assert a.n == 3 and a.shifts == (3, 1, 2) and a.runs == ((3, 1), (1, 1), (2, 1))
    assert str(a) == "M3(K)(3,1,2)"
    assert str(alg(L(2), 0, 1, 1)) == "M3(K[x^2])(0,1,1)"
    # runs are normalised, so equal shift lists give equal, equally hashed algebras
    b = ShiftedMatrixAlgebra(L(2), [(0, 1), (1, 1), [1, 1]])
    assert b.runs == ((0, 1), (1, 2)) and b.n == 3
    assert b == alg(L(2), 0, 1, 1) and hash(b) == hash(alg(L(2), 0, 1, 1))
    assert b != alg(L(2), 1, 0, 1) and b != alg(L(3), 0, 1, 1)
    for bad in [(), [(0, 0)], [(0, 2), (1, -1)], [(0,)], [(0, 1, 2)]]:
        with pytest.raises(ValueError):
            ShiftedMatrixAlgebra(K, bad)
    with pytest.raises(ValueError):
        ShiftedMatrixAlgebra.from_shifts(K, ())


def test_direct_sum_str():
    s = DirectSumAlgebra((alg(K, 0), alg(L(1), 2)))
    assert str(s) == "M1(K)(0) (+) M1(K[x^1])(2)"
    with pytest.raises(ValueError):
        DirectSumAlgebra(())


def test_least_rotation_exhaustive():
    for n in range(1, 7):
        for vec in itertools.product(range(3), repeat=n):
            assert _least_rotation_index(vec) == naive_least_rotation(vec)


def test_least_rotation_random():
    rng = random.Random(7)
    for _ in range(500):
        vec = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 12)))
        assert _least_rotation_index(vec) == naive_least_rotation(vec)


# (-gap, count) pairs, the items _class_form rotates; the least pair a draw may
# splice in is below every drawn one
_GAP_PAIRS = st.tuples(st.integers(-4, -1), st.integers(1, 3))
_LEAST_PAIR = (-5, 1)


@st.composite
def gap_pair_sequences(draw):
    """A sequence of (-gap, count) pairs whose least pair occurs once, occurs
    more than once, or repeats with the whole sequence, which is periodic."""
    shape = draw(st.sampled_from(["unique least", "repeated least", "periodic"]))
    seq = draw(st.lists(_GAP_PAIRS, min_size=1, max_size=12))
    if shape == "periodic":
        return seq[:4] * draw(st.integers(2, 4))
    for _ in range(1 if shape == "unique least" else draw(st.integers(2, 4))):
        seq.insert(draw(st.integers(0, len(seq))), _LEAST_PAIR)
    return seq


@settings(max_examples=400)
@given(gap_pair_sequences())
def test_least_rotation_of_gap_pairs(seq):
    assert _least_rotation_index(seq) == naive_least_rotation(seq)


def test_least_rotation_of_gap_pairs_fixed():
    for seq in [
        [(-3, 1)],
        [(-1, 2), (-3, 1), (-2, 1)],  # unique least pair
        [(-3, 1), (-1, 2), (-3, 1), (-1, 1)],  # repeated least pair, decided by the next
        [(-3, 2), (-3, 1), (-3, 2), (-3, 1)],  # periodic: the first least rotation
        [(-2, 1)] * 5,
    ]:
        assert _least_rotation_index(seq) == naive_least_rotation(seq)


def test_least_rotation_of_long_sequences():
    # 1,000 items, periodic or with a repeated least pair, where the scan
    # compares far past the first candidates before the answer is decided
    rng = random.Random(1000)
    block = [(-1, 1)] + [(-1, 3)] * 99
    seqs = [
        [(-1, 1)] * 1000,
        [(-1, 1), (-2, 1)] * 500,
        block * 6 + block[:-1] + [(-1, 2)] + block * 3,  # decided 99 items in
        [0, 1] * 499 + [0, 0],  # the least rotation starts 998 items in
        [rng.randint(0, 1) for _ in range(1000)],
    ]
    for size in (4, 8, 40, 125, 250, 500):
        unit = [(-rng.randint(1, 2), rng.randint(1, 2)) for _ in range(size)]
        r = rng.randrange(1000)
        seq = unit * (1000 // size)
        seqs.append(seq[r:] + seq[:r])
    for copies in (2, 30, 300):
        seq = [(-rng.randint(1, 4), rng.randint(1, 3)) for _ in range(1000 - copies)]
        for _ in range(copies):
            seq.insert(rng.randrange(len(seq) + 1), _LEAST_PAIR)
        seqs.append(seq)
    for seq in seqs:
        assert len(seq) == 1000
        assert _least_rotation_index(seq) == naive_least_rotation(seq)


def test_form_validation():
    TrivialForm(2, (1, 0, 3))
    with pytest.raises(ValueError):
        TrivialForm(2, (1, 1))
    with pytest.raises(ValueError):
        TrivialForm(1, (0, 1))
    with pytest.raises(ValueError):
        TrivialForm(1, (1, 0))
    CyclicForm(2, (0, 1))
    with pytest.raises(ValueError):
        CyclicForm(2, (1, 0))
    with pytest.raises(ValueError):
        CyclicForm(2, (0, 0))
    with pytest.raises(ValueError):
        CyclicForm(3, (0, 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CyclicForm(2.0, (0, 1)), "a form's period or count must be an int, not 2.0"),
        (lambda: CyclicForm(True, (1,)), "a form's period or count must be an int, not True"),
        (lambda: CyclicForm(2, (0, 1.0)), "a form's period or count must be an int, not 1.0"),
        (lambda: TrivialForm(True, (1, 1)), "a form's k or count must be an int, not True"),
        (lambda: TrivialForm(1.0, (1, 1)), "a form's k or count must be an int, not 1.0"),
        (lambda: TrivialForm(1, (1, True)), "a form's k or count must be an int, not True"),
    ],
    ids=["cyclic-float-period", "cyclic-bool-period", "cyclic-float-count", "trivial-bool-k", "trivial-float-k", "trivial-bool-count"],
)
def test_forms_refuse_fields_that_are_not_ints(build, message):
    # as every other constructor does, through _require_ints
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


class _Int(int):
    """An int subclass whose repr is not its value's."""

    def __repr__(self):
        return "I"


@pytest.mark.parametrize(
    "build",
    [
        lambda i: GradedBase(i(2)),
        lambda i: ShiftedMatrixAlgebra(L(2), [(i(1), i(2)), (i(-3), 1)]),
        lambda i: ShiftedMatrixAlgebra.from_shifts(K, (i(1), 2, i(1))),
        lambda i: TrivialForm(i(2), (i(1), 0, i(3))),
        lambda i: CyclicForm(i(3), (0, i(1), i(2))),
        lambda i: Permute((i(2), 1, i(3))),
        lambda i: GlobalShift(i(-3)),
        lambda i: EntryShift(i(2), i(-4)),
        lambda i: corner_by_indices(alg(K, 0, 1, 2), (i(3), i(1))),
    ],
    ids=["base", "runs", "from-shifts", "trivial-form", "cyclic-form", "permute", "global-shift", "entry-shift", "corner"],
)
def test_int_subclass_values_are_stored_as_ints(build):
    # a record built from int subclasses is its plain-int twin in every view
    got, twin = build(_Int), build(int)
    assert got == twin and hash(got) == hash(twin)
    assert (str(got), repr(got), pickle.dumps(got)) == (str(twin), repr(twin), pickle.dumps(twin))


def test_certificate_of_int_subclass_steps_reads_back():
    steps = [GlobalShift(_Int(3)), Permute((_Int(1),)), EntryShift(_Int(1), _Int(2))]
    text = format_certificate(steps)
    assert text == "G 3\nP 1\nE 1 2\n"
    assert parse_certificate(text) == steps


def test_cyclic_form_validation_matches_naive_least_rotation():
    # every residue vector with period <= 7 and counts <= 2
    checked = 0
    for m in range(1, 8):
        for mults in itertools.product(range(3), repeat=m):
            if not any(mults):
                continue
            checked += 1
            if naive_least_rotation(mults) == 0:
                assert CyclicForm(m, mults).mults == mults
            else:
                with pytest.raises(ValueError, match="least rotation"):
                    CyclicForm(m, mults)
    assert checked == 3272


def test_canonical_form_trivial():
    form = canonical_form(alg(K, 3, 1, 2, 1))
    assert isinstance(form, TrivialForm)
    assert form.k == 2 and form.mults == (2, 1, 1)
    assert str(form) == "trivial k=2 mults=(2,1,1)"
    assert canonical_form(alg(K, 5)).mults == (1,)


def test_canonical_form_trivial_with_gap():
    form = canonical_form(alg(K, 0, 3))
    assert form.k == 3 and form.mults == (1, 0, 0, 1)


def test_canonical_form_cyclic():
    form = canonical_form(alg(L(2), 0, 1, 2))
    assert isinstance(form, CyclicForm)
    assert form.period == 2 and form.mults == (1, 2)
    assert str(form) == "cyclic m=2 mults=(1,2)"
    assert canonical_form(alg(L(2), 0, 1, 1)).mults == (1, 2)
    assert canonical_form(alg(L(3), 0, 1, 2)).mults == (1, 1, 1)
    # m = 1 collapses every shift to residue zero
    assert canonical_form(alg(L(1), 4, -7, 0)).mults == (3,)


def test_canonical_form_cyclic_rotation():
    # counts (0->2, 1->1, 2->0, 3->1) rotates to least (0,1,2,1)
    form = canonical_form(alg(L(4), 0, 0, 1, 3))
    assert form.mults == (0, 1, 2, 1)


def _assert_past_the_listing_limit(form, text):
    """A form of more than 1,000,000 entries: str prints its nonzero entries
    as position:count, the dense view raises, and equality, hashing, repr and
    pickling read the (position, count) pairs."""
    assert str(form) == text
    with pytest.raises(ValueError, match=r"^\d+ multiplicities are too many to list one by one \(limit 1000000\)$"):
        form.mults
    pairs = tuple(zip(form._positions, form._counts))
    assert form._fields() == (form.k if isinstance(form, TrivialForm) else form.period, pairs)
    assert hash(form) == hash(form._fields()) and repr(form).endswith(f", mults={pairs!r})")
    twin = pickle.loads(pickle.dumps(form))
    assert twin == form and hash(twin) == hash(form) and str(twin) == text


def test_canonical_form_dense_limit_boundary():
    # the edges of the dense limit that canonical_form once had: a spread of
    # 4,999,999 / 5,000,000 over K, a period of 5,000,000 / 5,000,001; every
    # one is answered from the class form's columns
    cases = [
        (alg(K, 0, 4_999_999), "trivial k=4999999 mults={0:1,4999999:1}"),
        (alg(K, 0, 5_000_000), "trivial k=5000000 mults={0:1,5000000:1}"),
        (alg(L(5_000_000), 0), "cyclic m=5000000 mults={4999999:1}"),
        (alg(L(5_000_001), 0, 0, 3), "cyclic m=5000001 mults={4999997:2,5000000:1}"),
    ]
    for a, text in cases:
        _assert_past_the_listing_limit(canonical_form(a), text)
    # the form is one of the class: a moved copy has it, a narrower one does not
    assert canonical_form(alg(K, 7, 5_000_007)) == canonical_form(cases[1][0]) != canonical_form(cases[0][0])
    assert hash(canonical_form(alg(L(5_000_000), 12))) == hash(canonical_form(cases[2][0]))


@st.composite
def same_size_pairs(draw):
    """Two algebras over one base (K or K[x^m], m <= 12) with n <= 8 shifts;
    in about half the pairs the second is the first carried by random moves."""
    base = draw(st.one_of(st.just(K), st.integers(1, 12).map(L)))
    n = draw(st.integers(1, 8))
    shifts = st.lists(st.integers(-40, 40), min_size=n, max_size=n)
    a = alg(base, *draw(shifts))
    if not draw(st.booleans()):
        return a, alg(base, *draw(shifts))
    moved = draw(st.permutations(a.shifts))
    if base.is_laurent:
        moved = [s + base.period * draw(st.integers(-3, 3)) for s in moved]
    delta = draw(st.integers(-40, 40))
    return a, alg(base, *(s + delta for s in moved))


@settings(max_examples=600)
@given(same_size_pairs())
def test_sparse_class_form_matches_dense_definition(pair):
    a, b = pair
    assert canonical_form(a) == naive_canonical_form(a)
    assert canonical_form(b) == naive_canonical_form(b)
    iso = naive_canonical_form(a) == naive_canonical_form(b)
    assert is_graded_isomorphic(a, b) == iso
    assert (_class_key(a) == _class_key(b)) == iso
    if iso:
        cert = iso_certificate(a, b)
        assert len(cert) <= a.n + 2
        assert apply_certificate(a.shifts, cert, a.base) == b.shifts


def test_canonical_form_dense_guard():
    # only the dense view is guarded, by the listing limit: a spread of 2^31
    # and a period of 10^7 have forms, and at 1,000,000 entries str is dense
    _assert_past_the_listing_limit(canonical_form(alg(K, 0, 2**31)), "trivial k=2147483648 mults={0:1,2147483648:1}")
    _assert_past_the_listing_limit(
        canonical_form(alg(L(10_000_000), 0, 1)), "cyclic m=10000000 mults={9999998:1,9999999:1}"
    )
    _assert_past_the_listing_limit(canonical_form(alg(K, 0, 1_000_000)), "trivial k=1000000 mults={0:1,1000000:1}")
    edge = canonical_form(alg(K, 0, 999_999))
    assert edge.mults == (1, *[0] * 999_998, 1) and str(edge) == f"trivial k=999999 mults=(1,{'0,' * 999_998}1)"
    assert edge == TrivialForm(999_999, edge.mults) and hash(edge) == hash((999_999, edge.mults))


@st.composite
def forms_around_a_low_limit(draw):
    """An algebra over K or K[x^m], m <= 14, of up to 8 runs whose shifts
    are in [-12, 12] and whose counts are in 1..3: with the listing limit at
    8, its form is listable or not."""
    base = draw(st.one_of(st.just(K), st.integers(1, 14).map(L)))
    runs = draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 3)), min_size=1, max_size=8))
    return ShiftedMatrixAlgebra(base, runs)


@settings(max_examples=400)
@given(forms_around_a_low_limit(), st.integers(-30, 30))
def test_form_columns_match_the_checked_form(a, delta):
    # the checked twin of canonical_form's unchecked build, with the listing
    # limit patched to 8 entries so that forms fall on both sides of it
    naive = naive_canonical_form(a)
    first, dense = naive._fields()
    pairs = tuple((p, c) for p, c in enumerate(dense) if c)
    moved = ShiftedMatrixAlgebra(a.base, [(s + delta, c) for s, c in a.runs])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebras, "_MAX_LISTED", 8)
        form, checked = canonical_form(a), type(naive)(first, dense)
        assert vars(form) == vars(naive) == vars(checked)
        assert canonical_form(moved) == form == checked == naive
        assert hash(canonical_form(moved)) == hash(form) == hash(checked)
        twin = pickle.loads(pickle.dumps(form))
        assert (twin, hash(twin), repr(twin), str(twin)) == (form, hash(form), repr(form), str(form))
        if len(dense) <= 8:
            assert form.mults == dense and hash(form) == hash((first, dense))
            assert str(form) == f"{form._head}={first} mults=({','.join(map(str, dense))})"
        else:
            with pytest.raises(ValueError, match="too many to list one by one"):
                form.mults
            assert form._fields() == (first, pairs) and hash(form) == hash((first, pairs))
            assert str(form) == f"{form._head}={first} mults={{{','.join(map('{}:{}'.format, *zip(*pairs)))}}}"
            assert repr(form) == f"{type(form).__name__}({form.__match_args__[0]}={first}, mults={pairs!r})"
    # back at the real limit every such form is listable again
    assert form.mults == dense and form == naive and hash(form) == hash((first, dense))


def test_apply_step_permute():
    # new shifts read through the image: new[i] = old[image[i]]
    assert apply_certificate((10, 20, 30), (Permute((2, 3, 1)),), K) == (20, 30, 10)
    with pytest.raises(InvalidStepError):
        apply_certificate((0, 1), (Permute((1, 2, 3)),), K)
    with pytest.raises(ValueError):
        Permute((1, 1, 2))


def test_apply_step_global_shift():
    assert apply_certificate((0, 1, 1), (GlobalShift(1),), L(2)) == (1, 2, 2)
    assert apply_certificate((5,), (GlobalShift(-7),), K) == (-2,)


def test_apply_step_entry_shift():
    assert apply_certificate((1, 2, 2), (EntryShift(3, -2),), L(2)) == (1, 2, 0)
    with pytest.raises(InvalidStepError):
        apply_certificate((0, 1), (EntryShift(1, 2),), K)
    with pytest.raises(InvalidStepError):
        apply_certificate((0, 1), (EntryShift(1, 3),), L(2))
    with pytest.raises(InvalidStepError):
        apply_certificate((0, 1), (EntryShift(3, 2),), L(2))
    with pytest.raises(TypeError):
        apply_certificate((0, 1), ("G 1",), L(2))


STEP_KINDS = ["float", "bool", "str"]


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_permute_refuses_what_is_not_an_int(kind):
    # (2.0, 1) once sorted equal to 1..2, and printed as "P 2.0 1"
    bad = BAD_INTS[kind]
    with pytest.raises(ValueError) as err:
        Permute((bad, 1))
    assert str(err.value) == f"a permutation entry must be an int, not {bad!r}"


def _sorted_permute_outcome(image):
    """What Permute(image) did when it checked a permutation by sorting: the
    error message, or None when it accepted the image."""
    for value in image:
        if not isinstance(value, int) or isinstance(value, bool):
            return f"a permutation entry must be an int, not {value!r}"
    if sorted(image) != list(range(1, len(image) + 1)):
        return "image must be a permutation of 1..n"
    return None


def test_permute_check_matches_the_sorted_definition():
    # random images near a permutation: duplicates, 0, n + 1 and bools among them
    rng = random.Random(34)
    images = [(), (1,), (0,), (2,), (True,), (1, True), (2, 1, 3, 3)]
    for _ in range(3000):
        n = rng.randint(1, 9)
        image = rng.sample(range(1, n + 1), n)
        for _ in range(rng.choice((0, 0, 1, 2))):
            image[rng.randrange(n)] = rng.choice((0, n + 1, n + 2, -1, True, False, rng.randint(1, n)))
        images.append(tuple(image))
    outcomes = Counter()
    for image in images:
        expected = _sorted_permute_outcome(image)
        try:
            step = Permute(image)
        except ValueError as err:
            assert str(err) == expected, image
        else:
            assert expected is None and step.image == image, image
        outcomes[expected is None] += 1
    assert min(outcomes.values()) > 500


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_global_shift_refuses_what_is_not_an_int(kind):
    bad = BAD_INTS[kind]
    with pytest.raises(ValueError) as err:
        GlobalShift(bad)
    assert str(err.value) == f"a global shift must be an int, not {bad!r}"


@pytest.mark.parametrize("kind", STEP_KINDS)
@pytest.mark.parametrize("field", ["index", "delta"])
def test_entry_shift_refuses_what_is_not_an_int(field, kind):
    bad = BAD_INTS[kind]
    what = "an entry index" if field == "index" else "an entry shift's degree"
    with pytest.raises(ValueError) as err:
        EntryShift(bad, 2) if field == "index" else EntryShift(1, bad)
    assert str(err.value) == f"{what} must be an int, not {bad!r}"
    with pytest.raises(ValueError):
        EntryShift(0, 2)


@st.composite
def certificate_runs(draw):
    """(shifts, steps, base) over K or K[x^m] with m <= 5: steps drawn as
    GlobalShifts, Permutes and runs of 0-60 EntryShifts.  Up to three entries
    of a run may have an index past n or a degree off the period, anywhere in
    the run; a Permute may have the wrong length, and a non-step may stand in
    for a step."""
    base = draw(st.one_of(st.just(K), st.integers(1, 5).map(L)))
    period = base.period or 1
    n = draw(st.integers(1, 8))
    shifts = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from("GPEEE!"))
        if kind == "G":
            steps.append(GlobalShift(draw(st.integers(-9, 9))))
        elif kind == "P":
            size = draw(st.sampled_from([n, n, n, n + 1, max(1, n - 1)]))
            steps.append(Permute(tuple(draw(st.permutations(range(1, size + 1))))))
        elif kind == "!":
            steps.append(draw(st.sampled_from(["G 1", (1, 2), None])))
        else:
            length = draw(st.integers(0, 60))
            indices = draw(st.lists(st.integers(1, n), min_size=length, max_size=length))
            deltas = [period * k for k in draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length))]
            for _ in range(draw(st.integers(0, 3)) if length else 0):
                k = draw(st.integers(0, length - 1))
                if draw(st.booleans()):
                    indices[k] = n + draw(st.integers(1, 3))
                else:
                    deltas[k] += draw(st.integers(1, 4))
            steps.extend(map(EntryShift, indices, deltas))
    return tuple(shifts), steps, base


def _outcome(f, *args):
    """What f returns, or its error's class and message."""
    try:
        return "ok", f(*args)
    except (InvalidStepError, TypeError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(certificate_runs())
def test_apply_certificate_matches_step_at_a_time(drawn):
    shifts, steps, base = drawn
    cert = _Certificate(steps)
    want = _outcome(naive_apply_certificate, shifts, steps, base)
    assert _outcome(apply_certificate, shifts, steps, base) == want
    assert _outcome(apply_certificate, shifts, cert, base) == want
    # the runs read back as the list of steps they were built from
    assert len(cert) == len(steps) and list(cert) == steps and repr(cert) == repr(steps)
    assert cert == steps and steps == cert and not cert != steps
    assert (cert == tuple(steps)) == (steps == tuple(steps)) and (cert == steps[1:]) == (steps == steps[1:])
    assert [cert[k] for k in range(-len(steps), len(steps))] == steps + steps and cert[1::2] == steps[1::2]
    if all(isinstance(step, (Permute, GlobalShift, EntryShift)) for step in steps):
        assert parse_certificate(format_certificate(cert)) == steps


def test_inverse_step_round_trip():
    rng = random.Random(11)
    for _ in range(300):
        base = random_base(rng)
        n = rng.randint(1, 5)
        shifts = tuple(rng.randint(-6, 6) for _ in range(n))
        for step in random_certificate(rng, base, n, length=4):
            forward = apply_certificate(shifts, (step,), base)
            assert apply_certificate(forward, (inverse_step(step),), base) == shifts


def test_is_graded_isomorphic_examples():
    assert is_graded_isomorphic(alg(K, 0, 2), alg(K, 1, 3))
    assert not is_graded_isomorphic(alg(K, 0, 1), alg(K, 0, 2))
    assert is_graded_isomorphic(alg(L(2), 0, 1, 1), alg(L(2), 0, 1, 2))
    assert not is_graded_isomorphic(alg(L(2), 0, 0), alg(L(2), 0, 1))
    assert not is_graded_isomorphic(alg(K, 0), alg(L(1), 0))
    assert not is_graded_isomorphic(alg(K, 0), alg(K, 0, 0))


def test_is_graded_isomorphic_large_trivial_shifts():
    big = 2**31
    assert is_graded_isomorphic(alg(K, 0, big), alg(K, 5, big + 5))
    assert not is_graded_isomorphic(alg(K, 0, big), alg(K, 0, big - 1))


def test_is_graded_isomorphic_huge_period():
    m = 10_000_000
    assert is_graded_isomorphic(alg(L(m), 0), alg(L(m), 5))
    assert is_graded_isomorphic(alg(L(m), 0, 3, 3), alg(L(m), 5 + 4 * m, 8, 8 - m))
    assert not is_graded_isomorphic(alg(L(m), 0, 3, 3), alg(L(m), 0, 0, 3))
    assert not is_graded_isomorphic(alg(L(m), 0, 3), alg(L(m), 0, 4))


def test_iso_certificate_on_scrambled_pairs():
    rng = random.Random(13)
    for _ in range(400):
        a = random_realizable_summand(rng)
        cert = random_certificate(rng, a.base, a.n)
        b = ShiftedMatrixAlgebra.from_shifts(a.base, apply_certificate(a.shifts, cert, a.base))
        produced = iso_certificate(a, b)
        assert apply_certificate(a.shifts, produced, a.base) == b.shifts


def test_iso_certificate_trivial_is_shift_then_permute():
    cert = iso_certificate(alg(K, 0, 2), alg(K, 1, 3))
    assert cert == [GlobalShift(1)]
    cert = iso_certificate(alg(K, 2, 0), alg(K, 1, 3))
    assert apply_certificate((2, 0), cert, K) == (1, 3)


def test_iso_certificate_large_period_half_rotation():
    # residues moved by about m/2 and shifts far from their residues: one
    # GlobalShift by the offset, one Permute, and at most n EntryShifts
    m, n = 100_000, 60
    rng = random.Random(29)
    source = [rng.randrange(m) + m * rng.randint(-50, 50) for _ in range(n)]
    offset = m // 2 + 3
    target = [s + offset + m * rng.randint(-50, 50) for s in source]
    rng.shuffle(target)
    a, b = alg(L(m), *source), alg(L(m), *target)
    cert = iso_certificate(a, b)
    assert cert[0] == GlobalShift(offset)
    assert len(cert) <= n + 2
    assert apply_certificate(a.shifts, cert, a.base) == b.shifts


def test_iso_certificate_identical_inputs_is_empty():
    for a in (alg(K, 0, 1, 1), alg(K, 5), alg(L(2), 0, 1), alg(L(2), 5), alg(L(3), 7, 2, -4)):
        assert iso_certificate(a, a) == []


def test_iso_is_an_equivalence_relation():
    rng = random.Random(131)
    for base in (K, L(1), L(2), L(3)):
        pool = [
            alg(base, *(rng.randint(-2, 2) for _ in range(rng.randint(1, 3))))
            for _ in range(12)
        ]
        for a in pool:
            assert is_graded_isomorphic(a, a)
        for a, b in itertools.combinations(pool, 2):
            assert is_graded_isomorphic(a, b) == is_graded_isomorphic(b, a)
        for a, b, c in itertools.combinations(pool, 3):
            if is_graded_isomorphic(a, b) and is_graded_isomorphic(b, c):
                assert is_graded_isomorphic(a, c)


def test_iso_certificate_rejects_non_isomorphic():
    with pytest.raises(NotIsomorphicError):
        iso_certificate(alg(K, 0, 1), alg(K, 0, 2))
    with pytest.raises(NotIsomorphicError):
        iso_certificate(alg(K, 0), alg(L(1), 0))


def test_class_key_separates_bases():
    assert _class_key(alg(K, 0)) != _class_key(alg(L(1), 0))
    assert _class_key(alg(L(2), 0, 1)) == _class_key(alg(L(2), 4, 7))


def test_direct_sum_iso_example():
    left = DirectSumAlgebra((alg(K, 0), alg(K, 0, 1)))
    right = DirectSumAlgebra((alg(K, 5, 6), alg(K, 7)))
    assert direct_sum_iso(left, left)
    assert direct_sum_iso(left, right)
    assert not direct_sum_iso(left, DirectSumAlgebra((alg(K, 0), alg(K, 0, 2))))
    assert not direct_sum_iso(left, DirectSumAlgebra((alg(K, 0),)))
    # same size and shifts but different base kinds never match
    assert not direct_sum_iso(
        DirectSumAlgebra((alg(K, 0, 1),)), DirectSumAlgebra((alg(L(1), 0, 1),))
    )


def test_direct_sum_iso_wide_trivial_spread():
    wide = alg(K, 0, 2_000_000_000)
    left = DirectSumAlgebra((wide, alg(K, 0)))
    assert direct_sum_iso(left, DirectSumAlgebra((alg(K, 7), alg(K, -5, 1_999_999_995))))
    assert not direct_sum_iso(left, DirectSumAlgebra((alg(K, 0), alg(K, 0, 2_000_000_001))))


def test_direct_sum_iso_permuted_summands():
    rng = random.Random(17)
    for _ in range(100):
        summands = [random_realizable_summand(rng) for _ in range(rng.randint(1, 4))]
        scrambled = []
        for a in summands:
            cert = random_certificate(rng, a.base, a.n)
            scrambled.append(
                ShiftedMatrixAlgebra.from_shifts(a.base, apply_certificate(a.shifts, cert, a.base))
            )
        rng.shuffle(scrambled)
        assert direct_sum_iso(DirectSumAlgebra(tuple(summands)), DirectSumAlgebra(tuple(scrambled)))


SMALL_BASES = st.sampled_from([K] + [L(m) for m in range(1, 5)])


@st.composite
def small_summands(draw):
    """A summand of size at most 3 with shifts in 0..3, over K or K[x^m], m <= 4."""
    return alg(draw(SMALL_BASES), *draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))


@st.composite
def sum_pairs(draw):
    """Two sums of up to 3 small summands.  Half the time the second is the
    first reordered, each summand redrawn, moved by a global shift, or with
    one shift moved by the period, shifts kept in 0..3."""
    r = draw(st.lists(small_summands(), min_size=1, max_size=3))
    if draw(st.booleans()):
        return DirectSumAlgebra(tuple(r)), DirectSumAlgebra(tuple(draw(st.lists(small_summands(), min_size=1, max_size=3))))
    s = []
    for a in draw(st.permutations(r)):
        shifts = list(a.shifts)
        move = draw(st.sampled_from(["redraw", "global", "entry"]))
        if move == "redraw":
            a = draw(small_summands())
        elif move == "global":
            d = draw(st.integers(-min(shifts), 3 - max(shifts)))
            a = alg(a.base, *(x + d for x in shifts))
        elif a.base.is_laurent:
            i = draw(st.integers(0, len(shifts) - 1))
            if shifts[i] + a.base.period <= 3:
                shifts[i] += a.base.period
            elif shifts[i] - a.base.period >= 0:
                shifts[i] -= a.base.period
            a = alg(a.base, *shifts)
        s.append(a)
    return DirectSumAlgebra(tuple(r)), DirectSumAlgebra(tuple(s))


@settings(max_examples=200)
@given(sum_pairs())
def test_direct_sums_match_move_graph_matching(pair):
    r, s = pair
    # isomorphic exactly when the move-graph oracle, at criterion 5's bound,
    # matches the summands one to one
    iso = {(i, j): oracle_iso(a, b, bound=8) for i, a in enumerate(r.summands) for j, b in enumerate(s.summands)}
    matched = len(r.summands) == len(s.summands) and any(
        all(iso[i, j] for i, j in enumerate(perm)) for perm in itertools.permutations(range(len(s.summands)))
    )
    assert direct_sum_iso(r, s) == direct_sum_iso(s, r) == matched
    # a sum is realizable exactly when every summand is, and names each one that is not
    for t in (r, s):
        verdicts = [(pos, is_realizable(a)) for pos, a in enumerate(t.summands, 1)]
        failures = tuple((pos, v) for pos, v in verdicts if not v.ok)
        verdict = is_realizable_sum(t)
        assert verdict.failures == failures and verdict.ok == (not failures)


def test_oracle_iso_small():
    assert oracle_iso(alg(K, 0, 2), alg(K, 1, 3), bound=4)
    assert not oracle_iso(alg(K, 0, 1), alg(K, 0, 2), bound=4)
    assert oracle_iso(alg(L(2), 0, 1, 1), alg(L(2), 0, 1, 2), bound=4)
    assert oracle_iso(alg(L(2), 0, 1, 1), alg(L(2), 0, 1, 2), bound=6)
    assert not oracle_iso(alg(K, 0), alg(K, 0, 0), bound=3)
    x = alg(L(3), 4, 1)
    assert oracle_iso(x, x, bound=2)


def test_oracle_iso_window_guard():
    with pytest.raises(WindowExceededError):
        oracle_iso(alg(K, *range(7)), alg(K, *range(7)), bound=2)
    with pytest.raises(WindowExceededError):
        oracle_iso(alg(K, 0, 500), alg(K, 0, 500), bound=2)
    with pytest.raises(ValueError):
        oracle_iso(alg(K, 0), alg(K, 0), bound=-1)


def test_oracle_iso_matches_decider():
    rng = random.Random(19)
    for _ in range(60):
        base = random_base(rng, max_period=3)
        n = rng.randint(1, 3)
        a = ShiftedMatrixAlgebra.from_shifts(base, tuple(rng.randint(0, 2) for _ in range(n)))
        b = ShiftedMatrixAlgebra.from_shifts(base, tuple(rng.randint(0, 2) for _ in range(n)))
        assert oracle_iso(a, b, bound=6) == is_graded_isomorphic(a, b)


RUNS = st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=6)
RUN_BASES = st.one_of(st.just(K), st.integers(1, 5).map(L))


@given(RUN_BASES, RUNS, st.lists(st.integers(1, 18), min_size=1, max_size=5))
def test_runs_agree_with_expanded_shifts(base, runs, idx):
    shifts = [s for s, count in runs for _ in range(count)]
    a, b = ShiftedMatrixAlgebra(base, runs), ShiftedMatrixAlgebra.from_shifts(base, shifts)
    assert a == b and hash(a) == hash(b)
    assert a.n == len(shifts) and a.shifts == tuple(shifts)
    assert str(a) == str(b) == f"M{len(shifts)}({base})({','.join(map(str, shifts))})"
    assert a._class_form == b._class_form
    if base.is_trivial:
        low = min(shifts)
        start, keys, counts = a._class_form
        pairs = tuple(zip(keys, counts, strict=True))
        assert (start, pairs) == (low, tuple((s - low, shifts.count(s)) for s in sorted(set(shifts))))
    assert canonical_form(a) == canonical_form(b) == naive_canonical_form(b)
    mults = naive_canonical_form(b).mults
    realizable = all(mults) and (base.is_laurent or mults[0] == 1)
    assert is_realizable(a) == is_realizable(b) and is_realizable(a).ok == realizable
    idx = [i for i in idx if i <= a.n] or [a.n]
    corner = ShiftedMatrixAlgebra.from_shifts(base, [shifts[i - 1] for i in sorted(set(idx))])
    assert corner_by_indices(a, idx) == corner_by_indices(b, idx) == corner
    assert parse_algebra(str(a)).summands[0] == a


def test_listing_limit():
    # one shift of 0, a million of 1: realizable, but too many to list
    a = ShiftedMatrixAlgebra(K, [(0, 1), (1, 1_000_000)])
    message = "1000001 shifts or paths are too many to list one by one (limit 1000000)"
    for listing in (lambda: a.shifts, lambda: iso_certificate(a, a), lambda: apply_certificate(range(a.n), [], K)):
        with pytest.raises(ValueError) as err:
            listing()
        assert str(err.value) == message
    assert canonical_form(a) == TrivialForm(1, (1, 1_000_000))
    assert is_graded_isomorphic(a, ShiftedMatrixAlgebra(K, [(5, 1_000_000), (4, 1)]))
    at_limit = ShiftedMatrixAlgebra(K, [(0, 1), (1, 999_999)])
    assert len(at_limit.shifts) == 1_000_000 and iso_certificate(at_limit, at_limit) == []


def _count_class_forms(monkeypatch) -> Counter:
    """Count, per algebra id, how often its class form is computed; the
    algebras counted are kept alive, so their ids stay their own."""
    computed: Counter = Counter()
    form = vars(ShiftedMatrixAlgebra)["_class_form"].func
    kept = []

    def counted(a):
        kept.append(a)
        computed[id(a)] += 1
        return form(a)

    prop = cached_property(counted)
    prop.__set_name__(ShiftedMatrixAlgebra, "_class_form")
    monkeypatch.setattr(ShiftedMatrixAlgebra, "_class_form", prop)
    return computed


PAIRS = [
    ("M4(K)(3,0,1,1)", "M4(K)(9,6,7,7)"),
    ("M5(K[x^3])(0,1,1,2,5)", "M5(K[x^3])(3,1,5,8,-3)"),
    ("M3(K[x^50000])(0,1,1)", "M3(K[x^50000])(99999,0,100000)"),
]


def test_class_form_once_per_algebra(monkeypatch):
    computed = _count_class_forms(monkeypatch)
    for left, right in PAIRS:
        a, b = parse_algebra(left).summands[0], parse_algebra(right).summands[0]
        assert is_graded_isomorphic(a, b)
        cert = iso_certificate(a, b)
        assert apply_certificate(a.shifts, cert, a.base) == b.shifts
        assert _class_key(a) == _class_key(b) and canonical_form(a) == canonical_form(b)
        assert computed[id(a)] == computed[id(b)] == 1
    r = parse_algebra(" (+) ".join(left for left, _ in PAIRS))
    s = parse_algebra(" (+) ".join(right for _, right in reversed(PAIRS)))
    computed.clear()
    assert direct_sum_iso(r, s) and direct_sum_iso(s, r)
    assert sorted(computed.values()) == [1] * 6 and set(computed) == set(map(id, r.summands + s.summands))


def test_cached_class_form_leaves_identity_alone():
    for text in ["M4(K)(3,0,1,1)", "M5(K[x^3])(0,1,1,2,5)", "M3(K)(2(7),-1)"]:
        parsed = parse_algebra(text).summands[0]  # built from the parsed columns by _from_columns
        built = ShiftedMatrixAlgebra(parsed.base, parsed.runs)
        for a in (parsed, built):
            fresh = ShiftedMatrixAlgebra.from_shifts(a.base, a.shifts)
            before = pickle.dumps(a)
            assert a._class_form == fresh._class_form and "_class_form" in vars(a)
            assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh) and str(a) == str(fresh)
            assert pickle.dumps(a) == before == pickle.dumps(fresh)
            loaded = pickle.loads(before)
            assert loaded == a and hash(loaded) == hash(a) and loaded.runs == a.runs
            # the pickle holds (base, runs, n) and loads into the run columns, no cached property
            assert a.__getstate__() == {"base": a.base, "runs": a.runs, "n": a.n}
            assert sorted(vars(loaded)) == ["_run_counts", "_run_shifts", "base", "n"]


# Checks that only a direct call reaches: each constructor or operator refuses
# what its message names, and a comparison with a foreign type is left to the
# other side, so == is False.
_FOREIGN = object()
_ANSWERS = nullcontext()


@pytest.mark.parametrize(
    "check, outcome, result",
    [
        pytest.param(lambda: GradedBase.laurent(None), pytest.raises(ValueError, match="Laurent period must be a positive"), None, id="laurent-of-none"),
        pytest.param(lambda: CycleDescriptor(("a", "b"), ("e1",)), pytest.raises(ValueError, match="equally many vertices and edges"), None, id="cycle-counts-differ"),
        pytest.param(lambda: CycleDescriptor(("a", "a"), ("e1", "e2")), pytest.raises(ValueError, match="vertices must be distinct"), None, id="cycle-repeats-a-vertex"),
        pytest.param(lambda: GradedMatrix(K, (0,), [[1.5]]), pytest.raises(ValueError, match="cannot use 1.5 as a matrix entry"), None, id="matrix-entry-a-float"),
        pytest.param(lambda: GradedMatrix.zero(K, ()), pytest.raises(ValueError, match="matrix size must be positive"), None, id="zero-matrix-of-no-shifts"),
        pytest.param(lambda: GradedMatrix.zero(K, (0,)) + 1, pytest.raises(TypeError), None, id="matrix-plus-an-int"),
        pytest.param(lambda: _Certificate([GlobalShift(1), EntryShift(1, 2)])[2], pytest.raises(IndexError), None, id="certificate-past-its-end"),
        pytest.param(lambda: _Certificate([GlobalShift(1), EntryShift(1, 2)])[-3], pytest.raises(IndexError), None, id="certificate-before-its-start"),
        pytest.param(lambda: alg(K, 0).__eq__(_FOREIGN), _ANSWERS, NotImplemented, id="algebra-eq-foreign"),
        pytest.param(lambda: alg(K, 0) == _FOREIGN, _ANSWERS, False, id="algebra-equals-foreign"),
        pytest.param(lambda: parse_graph("u -> v").__eq__(_FOREIGN), _ANSWERS, NotImplemented, id="graph-eq-foreign"),
        pytest.param(lambda: parse_graph("u -> v") == _FOREIGN, _ANSWERS, False, id="graph-equals-foreign"),
        pytest.param(lambda: LaurentElement.monomial(0).__eq__(0), _ANSWERS, NotImplemented, id="laurent-element-eq-foreign"),
        pytest.param(lambda: LaurentElement.monomial(0) == _FOREIGN, _ANSWERS, False, id="laurent-element-equals-foreign"),
        pytest.param(lambda: str(SumVerdict(True)), _ANSWERS, "yes", id="realizable-sum-prints-yes"),
    ],
)
def test_checks_only_a_direct_call_reaches(check, outcome, result):
    with outcome:
        assert check() == result
