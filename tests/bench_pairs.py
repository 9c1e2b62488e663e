"""Alternating benchmark pairs of this checkout against a parent revision:
the runs, medians, wins and the parent's interquartile range that a
BENCH_*.json record holds.

The parent side is the revision unpacked with `git archive` into a scratch
directory; the change side is this checkout, its working tree as it stands.
Pair i runs bench/run.py once on each side at the i-th seed, one run at a
time, the parent first when i is even and the change first when it is odd,
each with --trace 0 (which writes no trace file) and with
PYTHONDONTWRITEBYTECODE=1.  From the root of a checkout:

    python tests/bench_pairs.py REV --workload graph_families --seeds 5301-5310
        [--seconds 25] [--claim ops_per_s] [--scratch DIR] [-o FILE]

prints one JSON object and, with -o, writes it to FILE as well:

    parent, workload, seeds, seconds    what was run
    runs            per run its seed, pair, side, first side, wall time and
                    bench/run.py's last stdout line, the result
    family_medians  per run the median ms per family and tier (small,
                    medium, large) that bench/run.py prints
    summary         per end-to-end metric of BENCHMARK.json, on each side
                    its quartiles and median, then the change's wins and
                    losses by pair and its median change in percent
    claim           with --claim: whether the change won at least nine pairs
                    in ten and its median beat the parent's by more than the
                    parent's interquartile range

Quartiles are statistics.quantiles(method="inclusive").  The exit code is 0
when every run answered correctly with no failed operation, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILY_HEADER = "median ms over a family's inputs, per tier"
CLAIM_SHARE = 0.9  # of the pairs the change must win


def seeds(text: str) -> list[int]:
    """'5301-5303,5310' -> [5301, 5302, 5303, 5310]."""
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def unpack(rev: str, scratch: Path) -> Path:
    """The tree of rev, unpacked from `git archive` under scratch."""
    dest = scratch / "parent"
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict, float]:
    """One bench/run.py run in root: its result line, its family medians
    and its wall time in seconds."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run([*argv, "--trace", "0"], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), family_medians(lines), wall


def family_medians(lines: list[str]) -> dict[str, list[float | None]]:
    """The per-family table of bench/run.py's stdout: family -> [small,
    medium, large] ms, None where a tier has no input of the family."""
    table = {}
    rows = iter(lines)
    for line in rows:
        if FAMILY_HEADER in line:
            break
    for line in rows:
        if not line.startswith("    "):
            break
        family, *cells = line.split()
        table[family] = [None if cell == "-" else float(cell) for cell in cells]
    return table


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric (BENCHMARK.json's end_to_end entries): each side's
    quartiles, the change's wins and losses by pair, and its median
    change in percent."""
    pairs = sorted({run["pair"] for run in runs})
    value = {(run["pair"], run["side"]): run["result"]["metrics"] for run in runs}
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        side = {s: [value[p, s][name]["value"] for p in pairs] for s in ("parent", "change")}
        gaps = [sign * (c - p) for p, c in zip(side["parent"], side["change"])]
        parent_q, change_q = quartiles(side["parent"]), quartiles(side["change"])
        summary[name] = {
            "parent_q1_median_q3": [round(v, 4) for v in parent_q],
            "change_q1_median_q3": [round(v, 4) for v in change_q],
            "change_wins": sum(g > 0 for g in gaps),
            "change_losses": sum(g < 0 for g in gaps),
            "median_change_pct": round(100 * (change_q[1] - parent_q[1]) / parent_q[1], 1) if parent_q[1] else None,
        }
    return summary


def claim(summary: dict, metrics: list[dict], name: str, pairs: int) -> dict:
    """Whether the change is better on name in at least CLAIM_SHARE of the
    pairs, and in the median by more than the parent's interquartile range."""
    row = summary[name]
    sign = 1 if next(m for m in metrics if m["name"] == name)["better"] == "higher" else -1
    q1, median, q3 = row["parent_q1_median_q3"]
    gap = sign * (row["change_q1_median_q3"][1] - median)
    return {
        "metric": name,
        "change_wins": row["change_wins"],
        "pairs": pairs,
        "median_gap": round(gap, 4),
        "parent_iqr": round(q3 - q1, 4),
        "met": row["change_wins"] >= CLAIM_SHARE * pairs and gap > q3 - q1,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 5301-5310 or 5301,5305")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", help="an end-to-end metric the change claims to improve")
    parser.add_argument("--scratch", type=Path, help="where to unpack the parent (default: a temporary directory)")
    parser.add_argument("-o", "--output", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    if args.claim and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim: no end-to-end metric {args.claim!r} in BENCHMARK.json")
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        sides = {"parent": unpack(args.parent, Path(tmp)), "change": ROOT}
        runs, medians = [], []
        for pair, seed in enumerate(args.seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result, fam, wall = bench(sides[side], args.workload, seed, args.seconds)
                which = {"workload": args.workload, "seed": seed, "pair": pair, "side": side, "first": order[0]}
                runs.append({**which, "wall_s": round(wall, 1), "result": result})
                medians.append({**which, "fam": fam})
                print(f"pair {pair} seed {seed} {side}: ops_per_s {result['metrics']['ops_per_s']['value']:.2f}",
                      file=sys.stderr)
    summary = summarize(runs, metrics)
    record = {"parent": args.parent, "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
              "runs": runs, "family_medians": medians, "summary": summary}
    if args.claim:
        record["claim"] = claim(summary, metrics, args.claim, len(args.seeds))
    text = json.dumps(record, indent=1)
    print(text)
    if args.output:
        args.output.write_text(text + "\n", encoding="utf-8")
    return 0 if all(run["result"]["correct"] and not run["result"]["failed"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
