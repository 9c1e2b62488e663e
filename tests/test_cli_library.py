"""The command line against the library call it reports, under hypothesis:

- `--json iso` answers as `direct_sum_iso`, on expressions of one to three
  summands over K and K[x^m], half of them graded isomorphic by moves
- for two single algebras that `iso` answers yes, the `--certificate`
  lines, written to a file, make `verify-cert` exit 0, and
  `apply_certificate` carries the left shifts onto the right ones
- `--json realizable` lists the failures of `is_realizable_sum`
- `--json classify` reports the flags, sinks, regular names and cycles of
  `classify`, on small multigraphs written by `format_graph`

Each call exits with the same code in text mode as under --json.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlpa import (
    DirectedGraph,
    DirectSumAlgebra,
    GradedBase,
    ShiftedMatrixAlgebra,
    apply_certificate,
    classify,
    direct_sum_iso,
    format_graph,
    is_realizable_sum,
    parse_certificate,
)
from gradedlpa.cli import main

BASES = st.one_of(st.just(GradedBase.trivial()), st.integers(1, 3).map(GradedBase.laurent))


@st.composite
def summands(draw):
    return ShiftedMatrixAlgebra.from_shifts(draw(BASES), draw(st.lists(st.integers(-2, 4), min_size=1, max_size=4)))


@st.composite
def moved(draw, a):
    """An algebra graded isomorphic to a: its shifts moved together, each by
    a multiple of the period over K[x^m], and dealt out in a new order."""
    m, delta = a.base.period, draw(st.integers(-3, 3))
    shifts = [s + delta + (m * draw(st.integers(-1, 1)) if m else 0) for s in a.shifts]
    return ShiftedMatrixAlgebra.from_shifts(a.base, draw(st.permutations(shifts)))


@st.composite
def expression_pairs(draw):
    """Two sums of one to three summands: the second is the first moved
    summand by summand and reordered, with at most one summand redrawn, or
    drawn on its own."""
    left = draw(st.lists(summands(), min_size=1, max_size=3))
    if draw(st.booleans()):
        right = draw(st.lists(summands(), min_size=1, max_size=3))
    else:
        right = draw(st.permutations([draw(moved(a)) for a in left]))
        if draw(st.booleans()):
            right[draw(st.integers(0, len(right) - 1))] = draw(summands())
    return DirectSumAlgebra(left), DirectSumAlgebra(right)


@st.composite
def multigraphs(draw):
    """A multigraph on up to four names, which sort against mention order."""
    names = draw(st.lists(st.sampled_from(["v9", "v10", "A", "b"]), min_size=1, max_size=4, unique=True))
    ends = st.sampled_from(names)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=6))
    return DirectedGraph(names, [(f"e{k}", source, range_) for k, (source, range_) in enumerate(edges)])


def _run(argv: list[str], stdin: str = "") -> tuple[int, dict]:
    """main(argv) in text mode and under --json: the exit code both give,
    and the payload."""
    codes, outputs = [], []
    for flag in ([], ["--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), mock.patch("sys.stdin", io.StringIO(stdin)):
            codes.append(main(flag + argv))
        outputs.append(out.getvalue())
    assert codes[0] == codes[1], (argv, outputs)
    return codes[0], json.loads(outputs[1])


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("certs") / "iso.cert"


@settings(max_examples=150)
@given(expression_pairs())
def test_iso_answers_as_direct_sum_iso(pair):
    left, right = pair
    code, payload = _run(["iso", str(left), str(right)])
    answer = direct_sum_iso(left, right)
    assert (code, payload["isomorphic"]) == (0 if answer else 1, answer)


@settings(max_examples=100)
@given(summands().flatmap(lambda a: st.tuples(st.just(a), st.one_of(moved(a), summands()))))
def test_iso_certificate_verifies(cert_path, pair):
    a, b = pair
    code, payload = _run(["iso", "--certificate", str(a), str(b)])
    assert code == (0 if direct_sum_iso(DirectSumAlgebra([a]), DirectSumAlgebra([b])) else 1)
    if code == 0:
        cert_path.write_text("".join(line + "\n" for line in payload["certificate"]), encoding="utf-8")
        assert _run(["verify-cert", str(a), str(b), str(cert_path)]) == (0, {"verified": True})
        assert apply_certificate(a.shifts, parse_certificate(cert_path.read_text()), a.base) == b.shifts


@settings(max_examples=100)
@given(st.lists(summands(), min_size=1, max_size=3).map(DirectSumAlgebra))
def test_realizable_lists_the_library_failures(total):
    code, payload = _run(["realizable", str(total)])
    verdict = is_realizable_sum(total)
    failures = [{"summand": pos, "failing_index": v.failing_index, "reason": v.reason} for pos, v in verdict.failures]
    assert (code, payload) == (0 if verdict.ok else 1, {"ok": verdict.ok, "failures": failures})


@settings(max_examples=100)
@given(multigraphs())
def test_classify_reports_the_library_classification(g):
    code, payload = _run(["classify", "-"], stdin=format_graph(g))
    info = classify(g)
    cycles = [{"vertices": list(c.vertices), "edges": list(c.edges), "length": c.length} for c in info.cycles]
    assert code == 0
    assert payload == {
        "finite": True,
        "acyclic": info.acyclic,
        "no_exit": info.no_exit,
        "comet_per_component": info.comet_per_component,
        "sinks": list(info.sinks),
        "regular": list(info.regular),
        "cycles": cycles,
    }
