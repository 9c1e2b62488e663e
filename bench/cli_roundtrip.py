"""Workload cli_roundtrip: the synthesize/represent round trip as a user runs
it, through ``gradedlpa.cli.main(argv)`` in-process with ``--json``.

One op on a realizable sum: realizable EXPR -> synthesize EXPR -o FILE ->
represent --provenance - (stdin is the synthesized graph) -> iso <represented
sum> EXPR -> canonical EXPR.  On a non-realizable sum (one op in five):
realizable EXPR must exit 1 naming each failing summand and index, then
synthesize EXPR must exit 1 and canonical EXPR still answers.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gen import POOL, TIERS, Case, composition, first_per_family, rng_for
from oracle import canonical, expect, failing_index, format_sum, parse_sum

NAME = "cli_roundtrip"

SUMMANDS = {"small": 1, "medium": 10, "large": 40}
SHIFTS = 100  # per summand
OPS_PER_TIER = 5  # the last one of each tier is not realizable
GRAPH_FILE = Path(__file__).resolve().parent / "out" / "synthesized.graph"


def _realizable(rng, over_k):
    """A shuffled, shifted realizable summand with SHIFTS shifts."""
    if over_k:
        levels = rng.randint(5, 60)  # l_0 = 1, then l_1..l_k >= 1
        mults = [1] + composition(rng, SHIFTS - 1, levels)
        shifts = [i for i, c in enumerate(mults) for _ in range(c)]
        period = None
    else:
        period = rng.randint(2, 7)  # every residue class occurs
        mults = composition(rng, SHIFTS, period)
        shifts = [r + period * rng.randint(-5, 5) for r, c in enumerate(mults) for _ in range(c)]
    offset = rng.randint(-50, 50)
    shifts = [s + offset for s in shifts]
    rng.shuffle(shifts)
    return period, shifts


def _unrealizable(rng, period, shifts):
    out = list(shifts)
    if period is not None:
        r = rng.randrange(period)  # empty residue class r
        return [s + 1 if s % period == r else s for s in out]
    low, high = min(out), max(out)
    if rng.random() < 0.5:
        i = next(i for i, s in enumerate(out) if s != low)
        out[i] = low  # two paths of length 0
    else:
        out = [s + 2 if s == high else s for s in out]  # a gap below the top level
    return out


def build(seed: int) -> list[list[Case]]:
    GRAPH_FILE.parent.mkdir(exist_ok=True)
    pool = []
    for variant in range(POOL):
        cases = []
        for tier in TIERS:
            for index in range(OPS_PER_TIER):
                rng = rng_for(NAME, seed, variant, tier, index)
                # alternate K and Laurent summands: the number of sinks, which
                # represent's cost grows with, then does not depend on the seed
                summands = [_realizable(rng, (index + j) % 2 == 0) for j in range(SUMMANDS[tier])]
                broken = index == OPS_PER_TIER - 1
                if broken:
                    j = rng.randrange(len(summands))
                    summands[j] = (summands[j][0], _unrealizable(rng, *summands[j]))
                failures = [
                    (pos, failing_index(p, s)) for pos, (p, s) in enumerate(summands, 1)
                    if failing_index(p, s) is not None
                ]
                if bool(failures) != broken:
                    raise AssertionError(f"generated sum {index} has failures {failures}")
                want = {
                    "forms": [canonical(p, s) for p, s in summands],
                    "failures": failures,
                    "vertices": SHIFTS * len(summands),
                }
                family = "unrealizable" if broken else "realizable"
                cases.append(Case(tier, family, {"expr": format_sum(summands)}, want))
        pool.append(cases)
    return pool


def _cli(G, note, argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = G.cli.main(argv)
    finally:
        sys.stdin = saved
    text = out.getvalue()
    note("cli.json_bytes", len(text))
    return code, text


def warm_up(pool):
    """One small-tier case per family."""
    return first_per_family((c for c in pool[0] if c.tier == "small"), lambda c: c.family)


def run(G, case: Case, note) -> dict:
    expr = case.data["expr"]
    out = {"realizable": _cli(G, note, ["--json", "realizable", expr])}
    if case.expect["failures"]:
        out["synthesize"] = _cli(G, note, ["--json", "synthesize", expr])
    else:
        out["synthesize"] = _cli(G, note, ["--json", "synthesize", expr, "-o", str(GRAPH_FILE)])
        graph = GRAPH_FILE.read_text(encoding="utf-8")
        out["represent"] = _cli(G, note, ["--json", "represent", "--provenance", "-"], stdin=graph)
        out["iso"] = _cli(G, note, ["--json", "iso", json.loads(out["represent"][1])["sum"], expr])
    out["canonical"] = _cli(G, note, ["--json", "canonical", expr])
    return out


def _json(step, code, out, want_code):
    expect(code == want_code, f"{step} exited {code}, expected {want_code}")
    return json.loads(out)


def _form(entry):
    if entry["kind"] == "trivial":
        return ("trivial", entry["k"], tuple(entry["mults"]))
    return ("cyclic", entry["m"], tuple(entry["mults"]))


def check(case: Case, out: dict):
    want = case.expect
    forms = [_form(f) for f in _json("canonical", *out["canonical"], 0)["forms"]]
    expect(forms == want["forms"], "canonical forms differ")
    if want["failures"]:
        report = _json("realizable", *out["realizable"], 1)
        got = [(f["summand"], f["failing_index"]) for f in report["failures"]]
        expect(report["ok"] is False and got == want["failures"], f"failures {got}")
        expect(_json("synthesize", *out["synthesize"], 1)["ok"] is False, "synthesize accepted")
        return
    expect(_json("realizable", *out["realizable"], 0)["ok"] is True, "realizable said no")
    written = _json("synthesize", *out["synthesize"], 0)
    expect(len(written["vertices"]) == want["vertices"], f"{len(written['vertices'])} vertices synthesized")
    rep = _json("represent", *out["represent"], 0)
    summands = parse_sum(rep["sum"])
    expect(sorted(canonical(p, s) for p, s in summands) == sorted(want["forms"]), "represented class differs")
    for (p, shifts), prov in zip(summands, rep["provenance"]):
        lengths = sorted(path["length"] for path in prov["paths"])
        expect(lengths == sorted(shifts), "provenance path lengths differ from the shifts")
    expect(_json("iso", *out["iso"], 0)["isomorphic"] is True, "represented sum not isomorphic")
