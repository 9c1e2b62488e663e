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


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["iso", "M1(K)(0)", "M2(K)(0,1)"], 1, "no\nreason: sizes differ: 1 vs 2\n", ""),
        (["--json", "iso", "M1(K)(0)", "M2(K)(0,1)"], 1, '{"isomorphic": false, "reason": "sizes differ: 1 vs 2"}\n', ""),
        (["verify-cert", "M1(K)(0)", "M1(K[x^1])(0)", "g1.cert"], 1, "no\nreason: bases differ: K vs K[x^1]\n", ""),
        (
            ["--json", "verify-cert", "M1(K)(0)", "M1(K[x^1])(0)", "g1.cert"],
            1,
            '{"verified": false, "reason": "bases differ: K vs K[x^1]"}\n',
            "",
        ),
        (
            ["synthesize", "M1(K)(0) (+) M2(K[x^2])(0,1)"],
            0,
            "vertex s2_v1\nvertex s2_v0\nvertex s1_v0_1\ns2_v1 -> s2_v0 s2_e1\ns2_v0 -> s2_v1 s2_e2\n",
            "",
        ),
        (
            ["--json", "synthesize", "M1(K)(0) (+) M2(K[x^2])(0,1)"],
            0,
            '{"vertices": ["s2_v1", "s2_v0", "s1_v0_1"], "edges": [["s2_e1", "s2_v1", "s2_v0"], ["s2_e2", "s2_v0", "s2_v1"]]}\n',
            "",
        ),
        (
            ["--json", "synthesize", "M2(K)(0,1)", "-o", "w.graph"],
            0,
            '{"written": "w.graph", "vertices": ["v1_1", "v0_1"], "edges": [["e1", "v1_1", "v0_1"]]}\n',
            "",
        ),
        (
            ["--json", "represent", "line.graph"],
            0,
            '{"sum": "M3(K)(0,1,2)", "provenance": [{"algebra": "M3(K)(0,1,2)", "kind": "sink", "sink": "w", "paths": '
            '[{"source": "w", "length": 0}, {"source": "v", "length": 1}, {"source": "u", "length": 2}]}]}\n',
            "",
        ),
        (
            ["corner", "line.graph", "--vertices", " , "],
            2,
            "",
            "error: line 1, column 1: --vertices needs a nonempty comma-separated list\n",
        ),
    ],
)
def test_report_bytes(argv, code, out, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "line.graph").write_text(LINE)
    (tmp_path / "g1.cert").write_text("G 1\n")
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
    if "-o" in argv:
        assert (tmp_path / "w.graph").read_text() == "vertex v1_1\nvertex v0_1\nv1_1 -> v0_1 e1\n"


# Certificates with runs of E steps, valid and forged, and the bytes that
# `iso --certificate` and `verify-cert` print for them, text and --json.
A6, B6 = "M6(K[x^2])(0,1,1,2,3,5)", "M6(K[x^2])(4,1,-1,6,3,-3)"
A8, B8 = "M8(K[x^3])(0,5,1,9,2,2,7,-4)", "M8(K[x^3])(2,3,1,3,3,8,19,3)"
AK, BK = "M4(K)(0,3,1,1)", "M4(K)(3,5,2,3)"
RUN_CERTS = {
    "runs.cert": "E 1 4\nE 3 -2\nE 4 4\nE 6 -8\n",
    "long.cert": "G 1\nP 3 2 1 5 6 7 4 8\nE 2 -3\nE 7 9\nE 8 6\n",
    "off_period.cert": "E 1 4\nE 3 1\nE 4 4\nE 6 -8\n",
    "past_n.cert": "E 1 4\nE 3 -2\nE 7 4\nE 6 -8\n",
    "two_offenders.cert": "E 1 4\nE 3 1\nE 9 4\nE 6 -8\n",
    "short_p.cert": "E 1 4\nE 3 -2\nP 2 1 3\nE 4 4\nE 6 -8\n",
    "malformed.cert": "E 1 4\nE 3 -2\nE 4 x\nE 6 -8\n",
    "zero_index.cert": "# runs\nE 1 4\nE 3 -2\nE 0 5\nE 6 -8\n",
    "k_entry.cert": "G 3\nE 2 0\n",
}
_OFF_PERIOD = "invalid step: EntryShift degree 1 is not a multiple of the period 2"
_PAST_N = "invalid step: entry index 7 out of range 1..6"
_SHORT_P = "invalid step: permutation of 3 entries applied to 6 shifts"
_K_ENTRY = "invalid step: EntryShift needs an invertible element of nonzero degree; K has none"
_LANDS = "certificate lands on (4, 1, -1, 6, 3, -3), not on (4, 1, -1, 6, 3, -1)"
_MALFORMED = "error: line 3, column 1: certificate arguments must be integers\n"
_ZERO_INDEX = "error: line 4, column 1: entry index is 1-based\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["iso", "--certificate", A6, B6], 0, "yes\nE 1 4\nE 3 -2\nE 4 4\nE 6 -8\n", ""),
        (["--json", "iso", "--certificate", A6, B6], 0, '{"isomorphic": true, "certificate": ["E 1 4", "E 3 -2", "E 4 4", "E 6 -8"]}\n', ""),
        (["iso", "--certificate", A8, B8], 0, "yes\nG 1\nP 3 2 1 5 6 7 4 8\nE 2 -3\nE 7 9\nE 8 6\n", ""),
        (
            ["--json", "iso", "--certificate", A8, B8],
            0,
            '{"isomorphic": true, "certificate": ["G 1", "P 3 2 1 5 6 7 4 8", "E 2 -3", "E 7 9", "E 8 6"]}\n',
            "",
        ),
        (["iso", "--certificate", AK, BK], 0, "yes\nG 2\nP 3 2 1 4\n", ""),
        (["--json", "iso", "--certificate", AK, BK], 0, '{"isomorphic": true, "certificate": ["G 2", "P 3 2 1 4"]}\n', ""),
        (["verify-cert", A6, B6, "runs.cert"], 0, "verified\n", ""),
        (["--json", "verify-cert", A6, B6, "runs.cert"], 0, '{"verified": true}\n', ""),
        (["verify-cert", A8, B8, "long.cert"], 0, "verified\n", ""),
        (["--json", "verify-cert", A8, B8, "long.cert"], 0, '{"verified": true}\n', ""),
        (["verify-cert", A6, "M6(K[x^2])(4,1,-1,6,3,-1)", "runs.cert"], 1, f"no\nreason: {_LANDS}\n", ""),
        (["--json", "verify-cert", A6, "M6(K[x^2])(4,1,-1,6,3,-1)", "runs.cert"], 1, f'{{"verified": false, "reason": "{_LANDS}"}}\n', ""),
        (["verify-cert", A6, B6, "off_period.cert"], 1, f"no\nreason: {_OFF_PERIOD}\n", ""),
        (["--json", "verify-cert", A6, B6, "off_period.cert"], 1, f'{{"verified": false, "reason": "{_OFF_PERIOD}"}}\n', ""),
        (["verify-cert", A6, B6, "past_n.cert"], 1, f"no\nreason: {_PAST_N}\n", ""),
        (["--json", "verify-cert", A6, B6, "past_n.cert"], 1, f'{{"verified": false, "reason": "{_PAST_N}"}}\n', ""),
        (["verify-cert", A6, B6, "two_offenders.cert"], 1, f"no\nreason: {_OFF_PERIOD}\n", ""),
        (["--json", "verify-cert", A6, B6, "two_offenders.cert"], 1, f'{{"verified": false, "reason": "{_OFF_PERIOD}"}}\n', ""),
        (["verify-cert", A6, B6, "short_p.cert"], 1, f"no\nreason: {_SHORT_P}\n", ""),
        (["--json", "verify-cert", A6, B6, "short_p.cert"], 1, f'{{"verified": false, "reason": "{_SHORT_P}"}}\n', ""),
        (["verify-cert", A6, B6, "malformed.cert"], 2, "", _MALFORMED),
        (["--json", "verify-cert", A6, B6, "malformed.cert"], 2, "", _MALFORMED),
        (["verify-cert", A6, B6, "zero_index.cert"], 2, "", _ZERO_INDEX),
        (["--json", "verify-cert", A6, B6, "zero_index.cert"], 2, "", _ZERO_INDEX),
        (["verify-cert", AK, BK, "k_entry.cert"], 1, f"no\nreason: {_K_ENTRY}\n", ""),
        (["--json", "verify-cert", AK, BK, "k_entry.cert"], 1, f'{{"verified": false, "reason": "{_K_ENTRY}"}}\n', ""),
    ],
)
def test_certificate_run_bytes(argv, code, out, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in RUN_CERTS.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


# Witness expressions: one vertex alone; K with k = 3 and a layer of one;
# periods 1, 2, 3 and 5, with branches on residue 0 and on others, on
# residue 0 alone and on others alone; sums with M1(K) first, in the middle
# and last, whose lone vertex follows every vertex an edge mentions.
ONE = "M1(K)(0)"
KDEEP = "M7(K)(0,1,1,2,3,3,3)"
P1 = "M3(K[x^1])(0,0,0)"
P2 = "M4(K[x^2])(0,0,1,1)"
P3 = "M7(K[x^3])(0,3,1,4,-2,2,5)"
P3R = "M6(K[x^3])(4,2,2,7,0,5)"
P5 = "M6(K[x^5])(0,1,2,3,4,9)"
MIX = "M1(K)(0) (+) M3(K[x^1])(0,0,0) (+) M4(K)(0,1,1,2)"
MIDDLE = "M2(K)(0,1) (+) M1(K)(0) (+) M3(K[x^3])(0,1,2) (+) M1(K)(5)"
NO = "M2(K)(0,2) (+) M1(K)(0)"
NO1 = "M2(K[x^2])(0,0)"
BIG = "M1(K)(0) (+) M1000002(K)(0,1000001(1))"
# each graph file an emit-dot row reads, written first by synthesize -o
WITNESSES = {"one.graph": ONE, "mix.graph": MIX, "middle.graph": MIDDLE}


@pytest.mark.parametrize(
    "argv, code, out, err, written",
    [
        (["synthesize", ONE], 0, "vertex v0_1\n", "", None),
        (["--json", "synthesize", ONE], 0, '{"vertices": ["v0_1"], "edges": []}\n', "", None),
        (["synthesize", "--dot", ONE], 0, "digraph {\n  v0_1;\n}\n", "", None),
        (["synthesize", KDEEP], 0, "vertex v1_1\nvertex v0_1\nvertex v1_2\nvertex v2_1\nvertex v3_1\nvertex v3_2\nvertex v3_3\nv1_1 -> v0_1 e1\nv1_2 -> v0_1 e2\nv2_1 -> v1_1 e3\nv3_1 -> v2_1 e4\nv3_2 -> v2_1 e5\nv3_3 -> v2_1 e6\n", "", None),
        (["--json", "synthesize", KDEEP], 0, '{"vertices": ["v1_1", "v0_1", "v1_2", "v2_1", "v3_1", "v3_2", "v3_3"], "edges": [["e1", "v1_1", "v0_1"], ["e2", "v1_2", "v0_1"], ["e3", "v2_1", "v1_1"], ["e4", "v3_1", "v2_1"], ["e5", "v3_2", "v2_1"], ["e6", "v3_3", "v2_1"]]}\n', "", None),
        (["synthesize", "--dot", KDEEP], 0, "digraph {\n  v1_1 -> v0_1;\n  v1_2 -> v0_1;\n  v2_1 -> v1_1;\n  v3_1 -> v2_1;\n  v3_2 -> v2_1;\n  v3_3 -> v2_1;\n}\n", "", None),
        (["synthesize", P1], 0, "vertex v0\nvertex v0_1\nvertex v0_2\nv0 -> v0 e1\nv0_1 -> v0 e2\nv0_2 -> v0 e3\n", "", None),
        (["--json", "synthesize", P1], 0, '{"vertices": ["v0", "v0_1", "v0_2"], "edges": [["e1", "v0", "v0"], ["e2", "v0_1", "v0"], ["e3", "v0_2", "v0"]]}\n', "", None),
        (["synthesize", "--dot", P1], 0, "digraph {\n  v0 -> v0;\n  v0_1 -> v0;\n  v0_2 -> v0;\n}\n", "", None),
        (["synthesize", P2], 0, "vertex v1\nvertex v0\nvertex v1_1\nvertex v0_1\nv1 -> v0 e1\nv0 -> v1 e2\nv1_1 -> v0 e3\nv0_1 -> v1 e4\n", "", None),
        (["--json", "synthesize", P2], 0, '{"vertices": ["v1", "v0", "v1_1", "v0_1"], "edges": [["e1", "v1", "v0"], ["e2", "v0", "v1"], ["e3", "v1_1", "v0"], ["e4", "v0_1", "v1"]]}\n', "", None),
        (["synthesize", "--dot", P2], 0, "digraph {\n  v1 -> v0;\n  v0 -> v1;\n  v1_1 -> v0;\n  v0_1 -> v1;\n}\n", "", None),
        (["synthesize", P3], 0, "vertex v1\nvertex v0\nvertex v2\nvertex v1_1\nvertex v2_1\nvertex v2_2\nvertex v0_1\nv1 -> v0 e1\nv2 -> v1 e2\nv0 -> v2 e3\nv1_1 -> v0 e4\nv2_1 -> v1 e5\nv2_2 -> v1 e6\nv0_1 -> v2 e7\n", "", None),
        (["--json", "synthesize", P3], 0, '{"vertices": ["v1", "v0", "v2", "v1_1", "v2_1", "v2_2", "v0_1"], "edges": [["e1", "v1", "v0"], ["e2", "v2", "v1"], ["e3", "v0", "v2"], ["e4", "v1_1", "v0"], ["e5", "v2_1", "v1"], ["e6", "v2_2", "v1"], ["e7", "v0_1", "v2"]]}\n', "", None),
        (["synthesize", "--dot", P3], 0, "digraph {\n  v1 -> v0;\n  v2 -> v1;\n  v0 -> v2;\n  v1_1 -> v0;\n  v2_1 -> v1;\n  v2_2 -> v1;\n  v0_1 -> v2;\n}\n", "", None),
        (["synthesize", P3R], 0, "vertex v1\nvertex v0\nvertex v2\nvertex v1_1\nvertex v2_1\nvertex v2_2\nv1 -> v0 e1\nv2 -> v1 e2\nv0 -> v2 e3\nv1_1 -> v0 e4\nv2_1 -> v1 e5\nv2_2 -> v1 e6\n", "", None),
        (["--json", "synthesize", P3R], 0, '{"vertices": ["v1", "v0", "v2", "v1_1", "v2_1", "v2_2"], "edges": [["e1", "v1", "v0"], ["e2", "v2", "v1"], ["e3", "v0", "v2"], ["e4", "v1_1", "v0"], ["e5", "v2_1", "v1"], ["e6", "v2_2", "v1"]]}\n', "", None),
        (["synthesize", "--dot", P3R], 0, "digraph {\n  v1 -> v0;\n  v2 -> v1;\n  v0 -> v2;\n  v1_1 -> v0;\n  v2_1 -> v1;\n  v2_2 -> v1;\n}\n", "", None),
        (["synthesize", P5], 0, "vertex v1\nvertex v0\nvertex v2\nvertex v3\nvertex v4\nvertex v4_1\nv1 -> v0 e1\nv2 -> v1 e2\nv3 -> v2 e3\nv4 -> v3 e4\nv0 -> v4 e5\nv4_1 -> v3 e6\n", "", None),
        (["--json", "synthesize", P5], 0, '{"vertices": ["v1", "v0", "v2", "v3", "v4", "v4_1"], "edges": [["e1", "v1", "v0"], ["e2", "v2", "v1"], ["e3", "v3", "v2"], ["e4", "v4", "v3"], ["e5", "v0", "v4"], ["e6", "v4_1", "v3"]]}\n', "", None),
        (["synthesize", "--dot", P5], 0, "digraph {\n  v1 -> v0;\n  v2 -> v1;\n  v3 -> v2;\n  v4 -> v3;\n  v0 -> v4;\n  v4_1 -> v3;\n}\n", "", None),
        (["synthesize", MIX], 0, "vertex s2_v0\nvertex s2_v0_1\nvertex s2_v0_2\nvertex s3_v1_1\nvertex s3_v0_1\nvertex s3_v1_2\nvertex s3_v2_1\nvertex s1_v0_1\ns2_v0 -> s2_v0 s2_e1\ns2_v0_1 -> s2_v0 s2_e2\ns2_v0_2 -> s2_v0 s2_e3\ns3_v1_1 -> s3_v0_1 s3_e1\ns3_v1_2 -> s3_v0_1 s3_e2\ns3_v2_1 -> s3_v1_1 s3_e3\n", "", None),
        (["--json", "synthesize", MIX], 0, '{"vertices": ["s2_v0", "s2_v0_1", "s2_v0_2", "s3_v1_1", "s3_v0_1", "s3_v1_2", "s3_v2_1", "s1_v0_1"], "edges": [["s2_e1", "s2_v0", "s2_v0"], ["s2_e2", "s2_v0_1", "s2_v0"], ["s2_e3", "s2_v0_2", "s2_v0"], ["s3_e1", "s3_v1_1", "s3_v0_1"], ["s3_e2", "s3_v1_2", "s3_v0_1"], ["s3_e3", "s3_v2_1", "s3_v1_1"]]}\n', "", None),
        (["synthesize", "--dot", MIX], 0, "digraph {\n  s1_v0_1;\n  s2_v0 -> s2_v0;\n  s2_v0_1 -> s2_v0;\n  s2_v0_2 -> s2_v0;\n  s3_v1_1 -> s3_v0_1;\n  s3_v1_2 -> s3_v0_1;\n  s3_v2_1 -> s3_v1_1;\n}\n", "", None),
        (["synthesize", MIDDLE], 0, "vertex s1_v1_1\nvertex s1_v0_1\nvertex s3_v1\nvertex s3_v0\nvertex s3_v2\nvertex s2_v0_1\nvertex s4_v0_1\ns1_v1_1 -> s1_v0_1 s1_e1\ns3_v1 -> s3_v0 s3_e1\ns3_v2 -> s3_v1 s3_e2\ns3_v0 -> s3_v2 s3_e3\n", "", None),
        (["--json", "synthesize", MIDDLE], 0, '{"vertices": ["s1_v1_1", "s1_v0_1", "s3_v1", "s3_v0", "s3_v2", "s2_v0_1", "s4_v0_1"], "edges": [["s1_e1", "s1_v1_1", "s1_v0_1"], ["s3_e1", "s3_v1", "s3_v0"], ["s3_e2", "s3_v2", "s3_v1"], ["s3_e3", "s3_v0", "s3_v2"]]}\n', "", None),
        (["synthesize", "--dot", MIDDLE], 0, "digraph {\n  s2_v0_1;\n  s4_v0_1;\n  s1_v1_1 -> s1_v0_1;\n  s3_v1 -> s3_v0;\n  s3_v2 -> s3_v1;\n  s3_v0 -> s3_v2;\n}\n", "", None),
        (["synthesize", "-o", "witness.graph", ONE], 0, "", "", "vertex v0_1\n"),
        (["--json", "synthesize", "-o", "witness.graph", ONE], 0, '{"written": "witness.graph", "vertices": ["v0_1"], "edges": []}\n', "", "vertex v0_1\n"),
        (["synthesize", "-o", "witness.graph", KDEEP], 0, "", "", "vertex v1_1\nvertex v0_1\nvertex v1_2\nvertex v2_1\nvertex v3_1\nvertex v3_2\nvertex v3_3\nv1_1 -> v0_1 e1\nv1_2 -> v0_1 e2\nv2_1 -> v1_1 e3\nv3_1 -> v2_1 e4\nv3_2 -> v2_1 e5\nv3_3 -> v2_1 e6\n"),
        (["--json", "synthesize", "-o", "witness.graph", KDEEP], 0, '{"written": "witness.graph", "vertices": ["v1_1", "v0_1", "v1_2", "v2_1", "v3_1", "v3_2", "v3_3"], "edges": [["e1", "v1_1", "v0_1"], ["e2", "v1_2", "v0_1"], ["e3", "v2_1", "v1_1"], ["e4", "v3_1", "v2_1"], ["e5", "v3_2", "v2_1"], ["e6", "v3_3", "v2_1"]]}\n', "", "vertex v1_1\nvertex v0_1\nvertex v1_2\nvertex v2_1\nvertex v3_1\nvertex v3_2\nvertex v3_3\nv1_1 -> v0_1 e1\nv1_2 -> v0_1 e2\nv2_1 -> v1_1 e3\nv3_1 -> v2_1 e4\nv3_2 -> v2_1 e5\nv3_3 -> v2_1 e6\n"),
        (["synthesize", "-o", "witness.graph", P3], 0, "", "", "vertex v1\nvertex v0\nvertex v2\nvertex v1_1\nvertex v2_1\nvertex v2_2\nvertex v0_1\nv1 -> v0 e1\nv2 -> v1 e2\nv0 -> v2 e3\nv1_1 -> v0 e4\nv2_1 -> v1 e5\nv2_2 -> v1 e6\nv0_1 -> v2 e7\n"),
        (["--json", "synthesize", "-o", "witness.graph", P3], 0, '{"written": "witness.graph", "vertices": ["v1", "v0", "v2", "v1_1", "v2_1", "v2_2", "v0_1"], "edges": [["e1", "v1", "v0"], ["e2", "v2", "v1"], ["e3", "v0", "v2"], ["e4", "v1_1", "v0"], ["e5", "v2_1", "v1"], ["e6", "v2_2", "v1"], ["e7", "v0_1", "v2"]]}\n', "", "vertex v1\nvertex v0\nvertex v2\nvertex v1_1\nvertex v2_1\nvertex v2_2\nvertex v0_1\nv1 -> v0 e1\nv2 -> v1 e2\nv0 -> v2 e3\nv1_1 -> v0 e4\nv2_1 -> v1 e5\nv2_2 -> v1 e6\nv0_1 -> v2 e7\n"),
        (["synthesize", "-o", "witness.graph", MIX], 0, "", "", "vertex s2_v0\nvertex s2_v0_1\nvertex s2_v0_2\nvertex s3_v1_1\nvertex s3_v0_1\nvertex s3_v1_2\nvertex s3_v2_1\nvertex s1_v0_1\ns2_v0 -> s2_v0 s2_e1\ns2_v0_1 -> s2_v0 s2_e2\ns2_v0_2 -> s2_v0 s2_e3\ns3_v1_1 -> s3_v0_1 s3_e1\ns3_v1_2 -> s3_v0_1 s3_e2\ns3_v2_1 -> s3_v1_1 s3_e3\n"),
        (["--json", "synthesize", "-o", "witness.graph", MIX], 0, '{"written": "witness.graph", "vertices": ["s2_v0", "s2_v0_1", "s2_v0_2", "s3_v1_1", "s3_v0_1", "s3_v1_2", "s3_v2_1", "s1_v0_1"], "edges": [["s2_e1", "s2_v0", "s2_v0"], ["s2_e2", "s2_v0_1", "s2_v0"], ["s2_e3", "s2_v0_2", "s2_v0"], ["s3_e1", "s3_v1_1", "s3_v0_1"], ["s3_e2", "s3_v1_2", "s3_v0_1"], ["s3_e3", "s3_v2_1", "s3_v1_1"]]}\n', "", "vertex s2_v0\nvertex s2_v0_1\nvertex s2_v0_2\nvertex s3_v1_1\nvertex s3_v0_1\nvertex s3_v1_2\nvertex s3_v2_1\nvertex s1_v0_1\ns2_v0 -> s2_v0 s2_e1\ns2_v0_1 -> s2_v0 s2_e2\ns2_v0_2 -> s2_v0 s2_e3\ns3_v1_1 -> s3_v0_1 s3_e1\ns3_v1_2 -> s3_v0_1 s3_e2\ns3_v2_1 -> s3_v1_1 s3_e3\n"),
        (["synthesize", "-o", "witness.graph", MIDDLE], 0, "", "", "vertex s1_v1_1\nvertex s1_v0_1\nvertex s3_v1\nvertex s3_v0\nvertex s3_v2\nvertex s2_v0_1\nvertex s4_v0_1\ns1_v1_1 -> s1_v0_1 s1_e1\ns3_v1 -> s3_v0 s3_e1\ns3_v2 -> s3_v1 s3_e2\ns3_v0 -> s3_v2 s3_e3\n"),
        (["--json", "synthesize", "-o", "witness.graph", MIDDLE], 0, '{"written": "witness.graph", "vertices": ["s1_v1_1", "s1_v0_1", "s3_v1", "s3_v0", "s3_v2", "s2_v0_1", "s4_v0_1"], "edges": [["s1_e1", "s1_v1_1", "s1_v0_1"], ["s3_e1", "s3_v1", "s3_v0"], ["s3_e2", "s3_v2", "s3_v1"], ["s3_e3", "s3_v0", "s3_v2"]]}\n', "", "vertex s1_v1_1\nvertex s1_v0_1\nvertex s3_v1\nvertex s3_v0\nvertex s3_v2\nvertex s2_v0_1\nvertex s4_v0_1\ns1_v1_1 -> s1_v0_1 s1_e1\ns3_v1 -> s3_v0 s3_e1\ns3_v2 -> s3_v1 s3_e2\ns3_v0 -> s3_v2 s3_e3\n"),
        (["synthesize", "--dot", "-o", "witness.dot", P2], 0, "", "", "digraph {\n  v1 -> v0;\n  v0 -> v1;\n  v1_1 -> v0;\n  v0_1 -> v1;\n}\n"),
        (["--json", "synthesize", "--dot", P2], 0, '{"dot": "digraph {\\n  v1 -> v0;\\n  v0 -> v1;\\n  v1_1 -> v0;\\n  v0_1 -> v1;\\n}\\n"}\n', "", None),
        (["--json", "synthesize", "--dot", "-o", "witness.dot", MIX], 0, '{"written": "witness.dot", "vertices": ["s2_v0", "s2_v0_1", "s2_v0_2", "s3_v1_1", "s3_v0_1", "s3_v1_2", "s3_v2_1", "s1_v0_1"], "edges": [["s2_e1", "s2_v0", "s2_v0"], ["s2_e2", "s2_v0_1", "s2_v0"], ["s2_e3", "s2_v0_2", "s2_v0"], ["s3_e1", "s3_v1_1", "s3_v0_1"], ["s3_e2", "s3_v1_2", "s3_v0_1"], ["s3_e3", "s3_v2_1", "s3_v1_1"]]}\n', "", "digraph {\n  s1_v0_1;\n  s2_v0 -> s2_v0;\n  s2_v0_1 -> s2_v0;\n  s2_v0_2 -> s2_v0;\n  s3_v1_1 -> s3_v0_1;\n  s3_v1_2 -> s3_v0_1;\n  s3_v2_1 -> s3_v1_1;\n}\n"),
        (["synthesize", NO], 1, "no\nreason: summand 1: l_1 = 0: a path of length 2 to the sink forces one of length 1\n", "", None),
        (["--json", "synthesize", NO], 1, '{"ok": false, "reason": "summand 1: l_1 = 0: a path of length 2 to the sink forces one of length 1"}\n', "", None),
        (["synthesize", "-o", "witness.graph", NO1], 1, "no\nreason: summand 1: l_1 = 0: no path of length = 1 (mod 2)\n", "", None),
        (["--json", "synthesize", NO1], 1, '{"ok": false, "reason": "summand 1: l_1 = 0: no path of length = 1 (mod 2)"}\n', "", None),
        (["synthesize", BIG], 2, "", "error: 1000002 shifts or paths are too many to list one by one (limit 1000000)\n", None),
        (["--json", "synthesize", "-o", "witness.graph", BIG], 2, "", "error: 1000002 shifts or paths are too many to list one by one (limit 1000000)\n", None),
        (["emit-dot", "one.graph"], 0, "digraph {\n  v0_1;\n}\n", "", None),
        (["--json", "emit-dot", "one.graph"], 0, '{"dot": "digraph {\\n  v0_1;\\n}\\n"}\n', "", None),
        (["emit-dot", "mix.graph"], 0, "digraph {\n  s1_v0_1;\n  s2_v0 -> s2_v0;\n  s2_v0_1 -> s2_v0;\n  s2_v0_2 -> s2_v0;\n  s3_v1_1 -> s3_v0_1;\n  s3_v1_2 -> s3_v0_1;\n  s3_v2_1 -> s3_v1_1;\n}\n", "", None),
        (["--json", "emit-dot", "mix.graph"], 0, '{"dot": "digraph {\\n  s1_v0_1;\\n  s2_v0 -> s2_v0;\\n  s2_v0_1 -> s2_v0;\\n  s2_v0_2 -> s2_v0;\\n  s3_v1_1 -> s3_v0_1;\\n  s3_v1_2 -> s3_v0_1;\\n  s3_v2_1 -> s3_v1_1;\\n}\\n"}\n', "", None),
        (["emit-dot", "middle.graph"], 0, "digraph {\n  s2_v0_1;\n  s4_v0_1;\n  s1_v1_1 -> s1_v0_1;\n  s3_v1 -> s3_v0;\n  s3_v2 -> s3_v1;\n  s3_v0 -> s3_v2;\n}\n", "", None),
        (["--json", "emit-dot", "middle.graph"], 0, '{"dot": "digraph {\\n  s2_v0_1;\\n  s4_v0_1;\\n  s1_v1_1 -> s1_v0_1;\\n  s3_v1 -> s3_v0;\\n  s3_v2 -> s3_v1;\\n  s3_v0 -> s3_v2;\\n}\\n"}\n', "", None),
    ],
)
def test_synthesize_bytes(argv, code, out, err, written, tmp_path, monkeypatch, capsys):
    # the exact exit code, stdout, stderr and -o file of each invocation
    monkeypatch.chdir(tmp_path)
    if "emit-dot" in argv:
        assert main(["synthesize", "-o", argv[-1], WITNESSES[argv[-1]]]) == 0
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
    target = tmp_path / argv[argv.index("-o") + 1] if "-o" in argv else None
    assert (target.read_text() if target and target.exists() else None) == written


# The console pins (tests/pins.py): each row through cli.main in a fresh
# directory; the CI workflow runs the same rows through the installed script.
@pytest.mark.parametrize("row", pins.ROWS, ids=[row["name"] for row in pins.ROWS])
def test_console_pins(row):
    assert pins.run(row) == pins.expected(row)


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
