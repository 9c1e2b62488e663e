import ast
import io
import json
import random
from pathlib import Path

import pytest

import pins
from conftest import diamond_chain, random_base, random_certificate, replay_failure
from gradedlpa import (
    EntryShift,
    GlobalShift,
    GradedMatrix,
    InvalidStepError,
    ParseError,
    Permute,
    ShiftedMatrixAlgebra,
    apply_certificate,
    cli,
    conjugate_by_step,
    format_certificate,
    format_graph,
    parse_algebra,
    parse_certificate,
)
from gradedlpa.cli import main

CLI_SOURCE = Path(__file__).resolve().parent.parent / "src" / "gradedlpa" / "cli.py"
COMET = "vertex t\nt -> u\nu -> v\nv -> u\n"
LINE = "u -> v\nv -> w\n"


@pytest.fixture
def comet_file(tmp_path):
    p = tmp_path / "comet.graph"
    p.write_text(COMET)
    return str(p)


@pytest.fixture
def line_file(tmp_path):
    p = tmp_path / "line.graph"
    p.write_text(LINE)
    return str(p)


def test_classify_text(comet_file, capsys):
    assert main(["classify", comet_file]) == 0
    out = capsys.readouterr().out
    assert "no-exit: yes" in out
    assert "comet-per-component: yes" in out
    assert "cycle: u v (length 2)" in out


def test_classify_json(comet_file, capsys):
    assert main(["--json", "classify", comet_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["no_exit"] is True
    assert data["cycles"][0]["vertices"] == ["u", "v"]


def test_classify_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(LINE))
    assert main(["classify", "-"]) == 0
    assert "sinks: w" in capsys.readouterr().out


def test_represent(comet_file, capsys):
    assert main(["represent", comet_file]) == 0
    assert capsys.readouterr().out.strip() == "M3(K[x^2])(0,1,1)"


def test_represent_with_base_and_provenance(comet_file, capsys):
    assert main(["represent", "--base", "v=v", "--provenance", comet_file]) == 0
    out = capsys.readouterr().out
    assert "M3(K[x^2])(0,1,2)" in out
    assert "t --(2)--> v" in out


def test_represent_json(comet_file, capsys):
    assert main(["--json", "represent", comet_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sum"] == "M3(K[x^2])(0,1,1)"
    assert data["provenance"][0]["kind"] == "cycle"


def test_represent_rejects_non_no_exit(tmp_path, capsys):
    p = tmp_path / "rose.graph"
    p.write_text("v -> v\nv -> v\n")
    assert main(["represent", str(p)]) == 3
    assert "error:" in capsys.readouterr().err


def test_represent_complete_graph_names_exit_vertex(tmp_path, capsys):
    # K_8 has more cycles than classify's cap; represent needs none of them
    p = tmp_path / "k8.graph"
    p.write_text("".join(f"v{i} -> v{j}\n" for i in range(8) for j in range(8) if i != j))
    for flags in ([], ["--base", "v1=v1"]):
        assert main(["represent", *flags, str(p)]) == 3
        assert capsys.readouterr().err == "error: cycle vertex 'v0' emits 7 edges\n"


def test_represent_bad_base_flag(comet_file, capsys):
    assert main(["represent", "--base", "t=u", comet_file]) == 3
    assert capsys.readouterr().err == "error: vertex 't' does not lie on any cycle\n"
    for spec in ("nonsense", "u=", "=u"):
        assert main(["represent", "--base", spec, comet_file]) == 2
        assert capsys.readouterr().err == f"error: line 1, column 1: --base expects cycle-vertex=base-vertex, got {spec!r}\n"
    # one base per cycle: a second choice for the same cycle is refused, not
    # silently kept
    for first, second in (("u=u", "v=v"), ("u=v", "u=u"), ("v=u", "u=u")):
        assert main(["represent", "--base", first, "--base", second, comet_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        name = second.partition("=")[0]
        assert captured.err == (
            f"error: line 1, column 1: --base chooses a second base vertex for the cycle through {name!r}\n"
        )
    assert main(["represent", "--base", "v=v", comet_file]) == 0
    assert capsys.readouterr().out == "M3(K[x^2])(0,1,2)\n"


def test_canonical(capsys):
    assert main(["canonical", "M3(K[x^2])(0,1,2) (+) M2(K)(5,4)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "M3(K[x^2])(0,1,2): cyclic m=2 mults=(1,2)"
    assert out[1] == "M2(K)(5,4): trivial k=1 mults=(1,1)"


def test_iso_yes_with_certificate(capsys):
    assert main(["iso", "--certificate", "M3(K[x^2])(0,1,1)", "M3(K[x^2])(0,1,2)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "yes"
    assert all(line[0] in "PGE" for line in lines[1:])


def test_iso_no(capsys):
    assert main(["iso", "M2(K)(0,1)", "M2(K)(0,2)"]) == 1
    out = capsys.readouterr().out
    assert out == "no\nreason: canonical forms differ: trivial k=1 mults=(1,1) vs trivial k=2 mults=(1,0,1)\n"


def test_iso_no_past_the_dense_limit(capsys):
    assert main(["iso", "M2(K)(0,2000000000)", "M2(K)(0,1)"]) == 1
    out = capsys.readouterr().out
    assert out == (
        "no\nreason: canonical forms differ: trivial k=2000000000 mults={0:1,2000000000:1}"
        " vs trivial k=1 mults=(1,1)\n"
    )
    assert main(["iso", "M2(K[x^10000000])(0,1)", "M2(K[x^10000000])(0,2)"]) == 1
    assert "cyclic m=10000000 mults={9999998:1,9999999:1} vs" in capsys.readouterr().out


def test_iso_reason_prints_the_forms_canonical_prints(capsys):
    # one printer on both sides of the listing limit, over K and K[x^m]
    pairs = [
        ("M2(K)(0,1)", "M2(K)(0,2)"),
        ("M2(K)(0,2000000000)", "M2(K)(0,1999999999)"),
        ("M2(K[x^10000000])(0,1)", "M2(K[x^10000000])(0,2)"),
    ]
    for left, right in pairs:
        assert main(["canonical", f"{left} (+) {right}"]) == 0
        forms = [line.split(": ", 1)[1] for line in capsys.readouterr().out.splitlines()]
        assert main(["iso", left, right]) == 1
        assert capsys.readouterr().out == f"no\nreason: canonical forms differ: {forms[0]} vs {forms[1]}\n"


def test_iso_yes_past_the_dense_limit(capsys):
    wide = "M2(K)(0,2000000000)"
    assert main(["iso", f"{wide} (+) M1(K)(0)", f"M1(K)(0) (+) {wide}"]) == 0
    assert main(["iso", "M1(K[x^10000000])(0)", "M1(K[x^10000000])(5)"]) == 0
    assert capsys.readouterr().out == "yes\nyes\n"
    # canonical answers past the old dense limit, with the form iso prints
    assert main(["canonical", wide]) == 0
    assert capsys.readouterr().out == f"{wide}: trivial k=2000000000 mults={{0:1,2000000000:1}}\n"
    assert main(["--json", "canonical", "M1(K[x^10000000])(0)"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "forms": [{"kind": "cyclic", "m": 10000000, "positions": [9999999], "counts": [1]}]
    }


def test_iso_base_mismatch(capsys):
    assert main(["iso", "M1(K)(0)", "M1(K[x^1])(0)"]) == 1
    assert "bases differ" in capsys.readouterr().out


def test_iso_sums(capsys):
    assert main(["iso", "M1(K)(0) (+) M2(K)(0,1)", "M2(K)(5,6) (+) M1(K)(7)"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["iso", "M1(K)(0) (+) M1(K)(0)", "M1(K)(0) (+) M2(K)(0,1)"]) == 1


def test_iso_certificate_needs_single_summands(capsys):
    code = main(["iso", "--certificate", "M1(K)(0) (+) M1(K)(0)", "M1(K)(0) (+) M1(K)(0)"])
    assert code == 2


def test_iso_json(capsys):
    assert main(["--json", "iso", "M2(K)(0,2)", "M2(K)(1,3)"]) == 0
    assert json.loads(capsys.readouterr().out)["isomorphic"] is True


def test_verify_cert(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    cert.write_text("G 1\nE 2 -2\nE 3 -2\nP 2 1 3\nE 3 2\n")
    assert main(["verify-cert", "M3(K[x^2])(0,1,1)", "M3(K[x^2])(0,1,2)", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "verified"
    assert main(["verify-cert", "M3(K[x^2])(0,1,1)", "M3(K[x^2])(0,1,4)", str(cert)]) == 1
    assert "reason:" in capsys.readouterr().out


MOVED = "a step moved a homogeneous component off its degree"


def _replays(left, right, text, forged):
    """The replay oracle's verdicts on the certificate `text` from left to
    right: with the real conjugation, and with `forged`."""
    a, b = (parse_algebra(expr).summands[0] for expr in (left, right))
    steps = parse_certificate(text)
    return replay_failure(a, b, steps), replay_failure(a, b, steps, forged)


def test_verify_cert_rejects_a_step_that_moves_a_component(tmp_path, capsys):
    # a forged conjugation that transposes the true result: on M2(K)(0,1)
    # the degree set {-1, 0, 1} survives, but the components of degree -1
    # and 1 trade places; the replay oracle refutes it on a certificate that
    # verify-cert verifies
    def transposed(matrix, step):
        out = conjugate_by_step(matrix, step)
        return GradedMatrix(out.base, out.shifts, tuple(zip(*out.entries)))

    cert = tmp_path / "c.cert"
    cert.write_text("G 1\n")
    assert main(["verify-cert", "M2(K)(0,1)", "M2(K)(1,2)", str(cert)]) == 0
    assert _replays("M2(K)(0,1)", "M2(K)(1,2)", "G 1\n", transposed) == (None, MOVED)


@pytest.mark.parametrize("forgery", ["shift_exponent", "drop_term", "copy_term"])
def test_verify_cert_rejects_a_step_that_moves_or_loses_a_term(tmp_path, capsys, forgery):
    # a forged conjugation that moves the last term of the true result up by
    # x^2, drops it, or also copies it to a free entry of the same degree (all
    # shifts are equal); the shifts stay right, and the replay oracle refutes
    # it on a certificate that verify-cert verifies
    def forged(matrix, step):
        out = conjugate_by_step(matrix, step)
        terms = dict(out._terms)
        if terms:
            (i, j, e), c = terms.popitem()
            if forgery == "shift_exponent":
                terms[i, j, e + 2] = c
            elif forgery == "copy_term":
                free = next((k, l) for k in range(out.n) for l in range(out.n) if (k, l, e) not in out._terms)
                terms.update({(i, j, e): c, (*free, e): c})
        return GradedMatrix._from_terms(out.base, out.shifts, terms)

    cert = tmp_path / "c.cert"
    cert.write_text("G 1\n")
    assert main(["verify-cert", "M3(K[x^2])(0,0,0)", "M3(K[x^2])(1,1,1)", str(cert)]) == 0
    assert _replays("M3(K[x^2])(0,0,0)", "M3(K[x^2])(1,1,1)", "G 1\n", forged) == (None, MOVED)


def _near(rng, steps, base, n):
    """A certificate close to `steps`: one step dropped, repeated, nudged or
    moved, or a random tail appended."""
    steps = list(steps)
    pos = rng.randrange(len(steps)) if steps else 0
    kind = rng.choice(["drop", "repeat", "nudge", "move", "append"] if steps else ["append"])
    if kind == "drop":
        del steps[pos]
    elif kind == "repeat":
        steps.insert(pos, steps[pos])
    elif kind == "move":
        steps.insert(rng.randrange(len(steps)), steps.pop(pos))
    elif kind == "nudge":
        step = steps[pos]
        if isinstance(step, Permute):
            image = list(step.image)
            k = rng.randrange(n)
            image[k], image[-1] = image[-1], image[k]
            steps[pos] = Permute(tuple(image))
        elif isinstance(step, GlobalShift):
            steps[pos] = GlobalShift(step.delta + rng.choice([-1, 1]))
        else:
            steps[pos] = EntryShift(step.index, step.delta + rng.choice([-1, 1, base.period]))
    else:
        steps += random_certificate(rng, base, n, length=rng.randint(1, 3))
    return steps


def _certificate_verdict(a, b, steps):
    """By the definition of a certificate: None when every step applies and
    the shifts land on b's, else why not."""
    try:
        final = apply_certificate(a.shifts, steps, a.base)
    except InvalidStepError as exc:
        return f"invalid step: {exc}"
    return None if final == b.shifts else f"certificate lands on {final}, not on {b.shifts}"


def test_verify_cert_replay_matches_certificate_definition(tmp_path, capsys):
    # iso --certificate certificates between scrambled pairs, and certificates
    # close to them: verify-cert verifies exactly the certificates whose steps
    # all apply and land on the target shifts, and names why the others fail;
    # the replay oracle refutes none of those it verifies
    rng = random.Random(606)
    kinds = set()
    cert = tmp_path / "c.cert"
    for _ in range(120):
        base = random_base(rng)
        n = rng.randint(1, 8)
        shifts = tuple(rng.randint(-4, 4) for _ in range(n))
        target = apply_certificate(shifts, random_certificate(rng, base, n), base)
        texts = [f"M{n}({base})({','.join(map(str, s))})" for s in (shifts, target)]
        assert main(["--json", "iso", "--certificate", *texts]) == 0
        steps = parse_certificate("".join(line + "\n" for line in json.loads(capsys.readouterr().out)["certificate"]))
        a, b = (parse_algebra(text).summands[0] for text in texts)
        for candidate in [steps] + [_near(rng, steps, base, n) for _ in range(4)]:
            want = _certificate_verdict(a, b, candidate)
            cert.write_text(format_certificate(candidate))
            assert main(["--json", "verify-cert", *texts, str(cert)]) == (0 if want is None else 1)
            assert json.loads(capsys.readouterr().out) == ({"verified": True} if want is None else {"verified": False, "reason": want})
            if want is None:
                assert replay_failure(a, b, candidate) is None
            kinds.add(want and want.split()[0])
    # verified, refuted by the shifts, refuted as an invalid step
    assert kinds == {None, "certificate", "invalid"}


def test_verify_cert_invalid_step(tmp_path, capsys):
    cert = tmp_path / "c.cert"
    cert.write_text("E 1 1\n")
    assert main(["verify-cert", "M2(K[x^2])(0,1)", "M2(K[x^2])(0,1)", str(cert)]) == 1
    assert "invalid step" in capsys.readouterr().out
    cert.write_text("wat\n")
    assert main(["verify-cert", "M2(K[x^2])(0,1)", "M2(K[x^2])(0,1)", str(cert)]) == 2


SUM = "M1(K)(0) (+) M1(K)(0)"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["iso", "--certificate", SUM, SUM], "certificates are only produced for single matrix algebras"),
        (["verify-cert", SUM, "M2(K)(0,0)", "CERT"], "verify-cert works on single matrix algebras"),
        (["corner", SUM, "--indices", "1"], "corner --indices works on a single matrix algebra"),
    ],
)
def test_single_algebra_commands_reject_sums(json_flag, argv, message, tmp_path, capsys):
    cert = tmp_path / "c.cert"
    cert.write_text("G 1\n")
    argv = [str(cert) if arg == "CERT" else arg for arg in argv]
    assert main(json_flag + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_cert_sample_limit(tmp_path, capsys):
    # verify-cert draws no sample matrix and replays no step, so neither the
    # size n nor the number of steps has a limit of its own: n = 1001, n = 161
    # with 159 steps and n = 1 with 235,295 steps all verify
    cert = tmp_path / "c.cert"
    for left, right, text in (
        ("M1001(K)(1001(0))", "M1001(K)(1001(1))", "G 1\n"),
        ("M161(K)(161(0))", "M161(K)(161(1))", "G 1\n" + "G 0\n" * 158),
        ("M1(K)(0)", "M1(K)(0)", "G 0\n" * 235_295),
    ):
        cert.write_text(text)
        assert main(["verify-cert", left, right, str(cert)]) == 0
        assert capsys.readouterr() == ("verified\n", "")
    # a certificate that misses the target is refuted
    cert.write_text("G 1\n")
    assert main(["verify-cert", "M1(K)(0)", "M1(K)(2)", str(cert)]) == 1
    assert capsys.readouterr() == ("no\nreason: certificate lands on (1,), not on (2,)\n", "")
    # the one size limit left is the listing limit of the shift lists
    assert main(["verify-cert", "M1000001(K)(1000001(0))", "M1000001(K)(1000001(1))", str(cert)]) == 2
    assert capsys.readouterr() == ("", "error: 1000001 shifts or paths are too many to list one by one (limit 1000000)\n")


def test_cli_draws_no_sample_matrix():
    # verify-cert decides by the certificate's moves alone: the CLI imports
    # no random source and nothing of the matrix layer
    tree = ast.parse(CLI_SOURCE.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            # `from . import matrices` names the module as an alias
            imported.update([module] + [f"{module.rstrip('.')}.{alias.name}" for alias in node.names])
    assert not imported & {"random", ".matrices", "gradedlpa.matrices"}


def test_realizable(capsys):
    assert main(["realizable", "M2(K)(0,1)"]) == 0
    assert capsys.readouterr().out.strip() == "yes"
    assert main(["realizable", "M1(K)(0) (+) M2(K)(0,2)"]) == 1
    out = capsys.readouterr().out
    assert "reason: summand 2: l_1 = 0" in out


def test_realizable_json(capsys):
    assert main(["--json", "realizable", "M2(K)(0,2)"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["failures"][0]["failing_index"] == 1


def test_synthesize_round_trip_through_cli(tmp_path, capsys):
    out_file = tmp_path / "witness.graph"
    assert main(["synthesize", "M3(K[x^2])(0,1,1)", "-o", str(out_file)]) == 0
    assert main(["represent", str(out_file)]) == 0
    assert capsys.readouterr().out.strip() == "M3(K[x^2])(0,1,1)"


def test_synthesize_not_realizable(capsys):
    assert main(["synthesize", "M2(K)(0,2)"]) == 1
    assert "reason:" in capsys.readouterr().out


def test_synthesize_dot(capsys):
    assert main(["synthesize", "--dot", "M2(K)(0,1)"]) == 0
    assert capsys.readouterr().out.startswith("digraph {")


def test_corner_vertices(line_file, capsys):
    assert main(["corner", line_file, "--vertices", "u,w"]) == 0
    assert capsys.readouterr().out.strip() == "M2(K)(0,2)"


def test_corner_indices(capsys):
    assert main(["corner", "M3(K)(0,1,2)", "--indices", "1,3"]) == 0
    assert capsys.readouterr().out.strip() == "M2(K)(0,2)"


def test_corner_errors(line_file, capsys):
    assert main(["corner", line_file, "--vertices", "bogus"]) == 3
    assert main(["corner", "M3(K)(0,1,2)", "--indices", "9"]) == 3
    assert main(["corner", "M3(K)(0,1,2)", "--indices", "x"]) == 2
    capsys.readouterr()
    # indices are ASCII integers, as certificate arguments are
    for indices in ["\uff11", "\u0663", "1_0", "1,2," + "9" * 5000]:
        assert main(["corner", "M3(K)(0,1,2)", "--indices", indices]) == 2
        assert capsys.readouterr() == ("", "error: line 1, column 1: --indices expects integers\n")
    assert main(["corner", "M3(K)(0,1,2)", "--indices", " +3 , 1"]) == 0
    assert capsys.readouterr().out == "M2(K)(0,2)\n"
    assert main(["corner", "M1(K)(0) (+) M1(K)(0)", "--indices", "1"]) == 2


def test_consecutive_main_calls_share_no_state(comet_file, line_file, capsys):
    """The argument parser is built once per process; each call still starts
    from the defaults: an appended --base, --json and the corner's exclusive
    choice do not carry over to the next call."""

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        return (code, *capsys.readouterr())

    runs = [
        ["represent", "--base", "u=u", comet_file],
        ["represent", "--base", "v=v", comet_file],
        ["represent", "--base", "u=u", "--base", "v=v", comet_file],
        ["represent", comet_file],
        ["--json", "represent", "--base", "v=u", comet_file],
        ["represent", "--provenance", comet_file],
        ["corner", line_file, "--vertices", "u,w"],
        ["corner", "M3(K)(0,1,2)", "--indices", "1,3"],
        ["corner", "M3(K)(0,1,2)", "--indices", "1", "--vertices", "u"],
        ["corner", "M3(K)(0,1,2)"],
        ["--json", "corner", "M3(K)(0,1,2)", "--indices", "2"],
        ["corner", line_file, "--vertices", "w"],
    ]
    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    assert cli.build_parser() is cli.build_parser()
    assert [call(argv) for argv in runs] == alone
    assert [call(argv) for argv in reversed(runs)] == alone[::-1]
    codes = [code for code, _, _ in alone]
    assert codes == [0, 0, 2, 0, 0, 0, 0, 0, 2, 2, 0, 0]
    assert (alone[0][1], alone[1][1]) == ("M3(K[x^2])(0,1,1)\n", "M3(K[x^2])(0,1,2)\n")
    assert "second base vertex" in alone[2][2]
    assert json.loads(alone[4][1])["provenance"][0]["base"] == "u" and alone[3][1] == alone[0][1]
    assert "not allowed with argument" in alone[8][2] and "one of the arguments" in alone[9][2]


# The console pins (tests/pins.py): each row through cli.main in a fresh
# directory; the CI workflow runs the same rows through the installed script.
@pytest.mark.parametrize("row", pins.ROWS, ids=[row["name"] for row in pins.ROWS])
def test_console_pins(row):
    assert pins.run(row) == pins.expected(row)


def test_pinned_text_and_json_exit_alike():
    # rows that differ only in --json answer with the same exit code, and a
    # refused call (exit 2) with the same error line
    groups = {}
    for row in pins.ROWS:
        argv = tuple(arg for arg in row["argv"] if arg != "--json")
        key = argv, tuple(sorted(row["files"].items()))
        groups.setdefault(key, ([], []))["--json" in row["argv"]].append(row)
    pairs = [(text, js) for texts, jsons in groups.values() for text in texts for js in jsons]
    assert len(pairs) >= 49 and len({text["argv"][0] for text, _ in pairs}) >= 8
    for text, js in pairs:
        assert text["exit"] == js["exit"], (text["name"], js["name"])
        if text["exit"] == 2:
            assert text["stderr"] == js["stderr"], (text["name"], js["name"])


# Certificates with runs of E steps, valid and forged: the pin rows of
# `iso --certificate` and `verify-cert`, text and --json, whose bytes live in
# the pin table alone.  Each call's verdict must also be the library's.
RUN_CERT_PINS = {row["name"]: row for row in pins.ROWS}
RUN_CERT_ROWS = [
    RUN_CERT_PINS[f"{command}{json_flag}-{case}"]
    for command, case in [
        ("iso-certificate", "over-k-x-2"),
        ("iso-certificate", "over-k-x-3"),
        ("iso-certificate", "over-k"),
        ("verify-cert", "runs-cert-over-k-x-2"),
        ("verify-cert", "long-cert-over-k-x-3"),
        ("verify-cert", "runs-cert-over-k-x-2-onto-a-shift-list-it-misses"),
        ("verify-cert", "off-period-cert-over-k-x-2"),
        ("verify-cert", "past-n-cert-over-k-x-2"),
        ("verify-cert", "two-offenders-cert-over-k-x-2"),
        ("verify-cert", "short-p-cert-over-k-x-2"),
        ("verify-cert", "malformed-cert-over-k-x-2"),
        ("verify-cert", "zero-index-cert-over-k-x-2"),
        ("verify-cert", "k-entry-cert-over-k"),
    ]
    for json_flag in ("", "-json")
]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [(row["argv"], row["exit"], row["stdout"], row["stderr"]) for row in RUN_CERT_ROWS],
)
def test_certificate_run_bytes(argv, code, out, err, tmp_path, monkeypatch, capsys):
    row = next(row for row in RUN_CERT_ROWS if row["argv"] == argv)
    monkeypatch.chdir(tmp_path)
    for name, text in row["files"].items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
    # the library replays the certificate the call printed or read to the
    # same verdict: a parse error exits 2, a refused step or a miss exits 1
    if "iso" in argv:
        a, b = (parse_algebra(expr).summands[0] for expr in argv[-2:])
        lines = json.loads(out)["certificate"] if "--json" in argv else out.splitlines()[1:]
        cert = "".join(line + "\n" for line in lines)
    else:
        a, b = (parse_algebra(expr).summands[0] for expr in argv[-3:-1])
        cert = row["files"][argv[-1]]
    try:
        final = apply_certificate(a.shifts, parse_certificate(cert), a.base)
    except ParseError as exc:
        assert (code, err) == (2, f"error: {exc}\n")
    except InvalidStepError as exc:
        assert code == 1 and f"invalid step: {exc}" in out
    else:
        assert code == (0 if final == b.shifts else 1)


def test_emit_dot(comet_file, capsys):
    assert main(["emit-dot", comet_file]) == 0
    out = capsys.readouterr().out
    assert "t -> u;" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("a => b\n")
    assert main(["classify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["canonical", "M2(K)(0)"]) == 2
    assert main(["classify", str(tmp_path / "missing.graph")]) == 2
    capsys.readouterr()
    assert main(["classify", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith("error: [Errno")
    assert main(["canonical", "M²(K)(0)"]) == 2
    assert capsys.readouterr().err == "error: line 1, column 2: expected a matrix size\n"


def test_shift_total_past_the_digit_limit_exits_2(capsys):
    # the listed shifts add up to a number of 4,301 digits: a ParseError at
    # the shift list, in every command that reads an expression
    text = f"M1(K)({'9' * 4300}(0),5)"
    message = "line 1, column 7: summand declares n=1 but lists a number of shifts with more than 4300 digits"
    for argv in (["canonical", text], ["--json", "canonical", text], ["realizable", text], ["iso", "M1(K)(0)", text]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("k", [19, 60])
def test_represent_text_past_the_listing_limit_feeds_every_command(k, tmp_path, capsys):
    # past 1,000,000 shifts represent prints runs count(shift), which parse back
    chain = tmp_path / "chain.graph"
    chain.write_text(format_graph(diamond_chain(k)))
    assert main(["represent", str(chain)]) == 0
    text = capsys.readouterr().out.strip()
    assert text.startswith(f"M{2 ** (k + 2) - 3}(K)(1(0),2(1),2(2),4(3),")
    a = parse_algebra(text).summands[0]
    reordered = str(ShiftedMatrixAlgebra(a.base, a.runs[::-1]))
    for argv in (["canonical", text], ["realizable", text], ["iso", text, text], ["iso", text, reordered]):
        assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{text}: trivial k={2 * k} mults=({','.join(str(c) for _, c in a.runs)})"
    assert out[1:] == ["yes", "yes", "yes"]


def test_listing_limit_exits_2(tmp_path, capsys):
    chain = tmp_path / "chain.graph"
    chain.write_text(format_graph(diamond_chain(19)))
    assert main(["represent", str(chain)]) == 0
    text = capsys.readouterr().out.strip()
    cert = tmp_path / "empty.cert"
    cert.write_text("")
    for argv in (
        ["--json", "represent", str(chain)],
        ["represent", "--provenance", str(chain)],
        ["iso", "--certificate", text, text],
        ["synthesize", text],
        ["verify-cert", text, text, str(cert)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2097149 shifts or paths are too many to list one by one (limit 1000000)\n"
