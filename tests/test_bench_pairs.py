"""tests/bench_pairs.py's reading of seeds and of bench/run.py's stdout, and
its summary and claim on made-up pairs; no benchmark runs here."""

import json
from pathlib import Path

from bench_pairs import claim, family_medians, seeds, summarize

METRICS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def _run(pair, side, ops, p50):
    values = {m["name"]: 1.0 for m in METRICS} | {"ops_per_s": ops, "op_p50_ms": p50}
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    return {"pair": pair, "side": side, "result": {"correct": True, "failed": 0, "metrics": metrics}}


def test_seeds():
    assert seeds("5301-5303,5310") == [5301, 5302, 5303, 5310]
    assert seeds("7") == [7]


def test_family_medians_read_the_table_bench_prints():
    lines = [
        "5 passes of 90 ops in 2.1 s: 450 attempted, 0 failed",
        "  median ms over a family's inputs, per tier (small, medium, large):",
        "    comets                              1.168        2.181        4.353",
        "    diamond                             0.213            -        0.316",
        "  op_tail_ms is p90 of 450 ops, 40 beyond it, each at its input's median",
    ]
    assert family_medians(lines) == {"comets": [1.168, 2.181, 4.353], "diamond": [0.213, None, 0.316]}


def test_summary_counts_wins_in_the_better_direction_and_the_claim_needs_nine_in_ten():
    parent = [100, 101, 102, 103, 104, 100, 101, 102, 103, 104]
    runs = [_run(i, "parent", ops, 2.0) for i, ops in enumerate(parent)]
    runs += [_run(i, "change", ops + 10, 2.0 - 0.1 * (i % 2)) for i, ops in enumerate(parent)]
    summary = summarize(runs, METRICS)
    ops = summary["ops_per_s"]
    assert ops["parent_q1_median_q3"] == [101.0, 102.0, 103.0]
    assert (ops["change_wins"], ops["change_losses"], ops["median_change_pct"]) == (10, 0, 9.8)
    p50 = summary["op_p50_ms"]  # lower is better
    assert (p50["change_wins"], p50["change_losses"]) == (5, 0)
    assert claim(summary, METRICS, "ops_per_s", 10) == {
        "metric": "ops_per_s", "change_wins": 10, "pairs": 10, "median_gap": 10.0, "parent_iqr": 2.0, "met": True
    }
    assert not claim(summary, METRICS, "op_p50_ms", 10)["met"]
