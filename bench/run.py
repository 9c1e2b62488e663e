"""The gradedlpa benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload graph_families --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
The client sends one operation after another.  Each operation calls the
public API (or the CLI in-process) with text inputs generated from the seed
and is checked against the benchmark's own oracle; a wrong answer counts as
a failure just like an unexpected exception.  The loop runs whole passes over
the generated inputs, so every input gets the same number of samples, and
stops after the pass whose end falls nearest to ``--seconds``, but not
before MIN_PASSES passes unless the machine is so slow that another pass
would end past MAX_OVERRUN times ``--seconds``.

Times are scaled to a reference pace (see ``steady``).  Each input's
latency is the median of its samples, one per pass; medians and throughput
are taken over inputs, the tail over all ops at their inputs' medians.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints per-layer metrics from the traced ones and
writes every span to ``bench/out/``.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import certify
import cli_roundtrip
import graph_families
from gen import TIERS, digest
from oracle import Mismatch
from tracer import CALL_METRICS, COUNTS, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = {w.NAME: w for w in (graph_families, certify, cli_roundtrip)}
SETUP_REPEATS = 5
# reported times are scaled to this duration of reference_work(), about
# what one quiet x86 core of the 2020s takes
REFERENCE_PACE_S = 0.002
PACE_WINDOW_S = 0.5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MIN_PASSES = 4
MAX_OVERRUN = 1.5


class Record(NamedTuple):
    traced: bool
    cell: tuple  # (tier, family, variant, position in the round): one input
    start: float  # perf_counter at the op's start
    latency: float  # seconds
    outcome: tuple | None  # None when verified, else (kind, text)


def reference_work() -> float:
    """Seconds taken by a fixed piece of pure-Python work in the mix the
    library runs: string keys and dict updates, a depth-first walk over an
    adjacency dict with a visited set, and a JSON round trip.

    On a machine whose cores are shared with other work, the same work can
    take up to twice as long for seconds or minutes at a time.  Timing this
    between ops tells how fast the machine ran around each op.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        key = f"k{i % 211}"
        table[key] = table.get(key, 0) + i
    adjacency = {v: ((v * 7) % 2003, (v * 13) % 2003) for v in range(2003)}
    seen, stack = set(), [0]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adjacency[v])
    json.loads(json.dumps([[f"v{i}", i] for i in range(1000)]))
    return time.perf_counter() - t0


def import_library():
    """Import gradedlpa from the checkout's src, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "gradedlpa" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradedlpa sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "gradedlpa" or n.startswith("gradedlpa.")]:
        del sys.modules[name]
    package = importlib.import_module("gradedlpa")
    importlib.import_module("gradedlpa.cli")
    if Path(package.__file__).resolve().parent != src / "gradedlpa":
        raise SystemExit(f"error: imported gradedlpa from {package.__file__}")
    return package


def setup(workload, seed):
    """Import, generate inputs and warm up; returns (library, pool, seconds
    at the reference pace)."""
    before = reference_work()
    t0 = time.perf_counter()
    G = import_library()
    pool = workload.build(seed)
    for case in workload.warm_up(pool):
        workload.check(case, workload.run(G, case, ignore))
    seconds = time.perf_counter() - t0
    return G, pool, seconds * REFERENCE_PACE_S / ((before + reference_work()) / 2)


def run_op(workload, G, case, note):
    """(latency seconds, outcome) for one checked operation.

    The outcome is None when the answer matches the oracle, ("defect", text)
    when the op hit the known defect its case documents, else ("failed", text).
    """
    t0 = time.perf_counter()
    try:
        out = workload.run(G, case, note)
    except Exception as exc:  # a library exception is an outcome, not a crash
        latency = time.perf_counter() - t0
        text = f"{type(exc).__name__}: {exc}"[:300]
        known = case.expect.get("known_defect")
        if known and type(exc).__name__ == known[0] and known[1] in str(exc):
            return latency, ("defect", text)
        return latency, ("failed", text)
    latency = time.perf_counter() - t0
    try:
        workload.check(case, out)
    except Mismatch as exc:
        return latency, ("failed", f"wrong answer: {exc}"[:300])
    except Exception as exc:
        return latency, ("failed", f"unreadable answer: {type(exc).__name__}: {exc}"[:300])
    return latency, None


def tail(medians, passes):
    """(percentile, value, ops beyond) of the tail over all ops, each op at
    its input's median latency.

    The percentile is the highest one that leaves at least ten ops beyond it
    in a run of MIN_PASSES passes, so it depends on the inputs only, never on
    how many passes a run managed.
    """
    ordered = sorted(medians)
    n = len(ordered)
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if (n - math.ceil(n * p / 100)) * MIN_PASSES >= 10:
            best = p
    rank = math.ceil(n * best / 100)
    return best, ordered[rank - 1], (n - rank) * passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setups = []
    for _ in range(SETUP_REPEATS):
        G, pool, seconds = setup(workload, args.seed)
        setups.append(seconds)
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {digest(pool)[:16]}")

    tracer = Tracer() if args.trace else None
    records = []  # Record per attempted op, both modes
    # inputs and expected answers live for the whole run; keep them out of
    # the collector's way so pauses come from the library's own garbage
    gc.collect()
    gc.freeze()
    loop_start = time.perf_counter()
    passes = 0
    probes = [(time.perf_counter(), reference_work())]  # (when, seconds)
    while True:
        pass_start = time.perf_counter()
        # a pass runs every variant once, so each cell gets equal samples;
        # with --trace 1, untraced and traced passes alternate
        traced = bool(args.trace) and passes % 2 == 1
        if traced:
            tracer.install()
        for variant, cases in enumerate(pool):
            for index, case in enumerate(cases):
                if traced:
                    tracer.op_id = len(records)
                start = time.perf_counter()
                latency, outcome = run_op(workload, G, case, tracer.note if traced else ignore)
                records.append(Record(traced, (case.tier, case.family, variant, index), start, latency, outcome))
                probes.append((time.perf_counter(), reference_work()))
        if traced:
            tracer.uninstall()
        passes += 1
        # stop where the end falls nearest to --seconds, after at least
        # MIN_PASSES passes, unless another pass would end past
        # MAX_OVERRUN * --seconds (in traced runs, only after a traced pass)
        now = time.perf_counter()
        elapsed, last = now - loop_start, now - pass_start
        if (not args.trace or passes % 2 == 0) and (
            (passes >= MIN_PASSES and elapsed + last / 2 >= args.seconds)
            or (passes >= 2 and elapsed + last > MAX_OVERRUN * args.seconds)
        ):
            break
    loop_s = time.perf_counter() - loop_start

    attempted = len(records)
    failed = sum(1 for rec in records if rec.outcome and rec.outcome[0] == "failed")
    defects = sum(1 for rec in records if rec.outcome and rec.outcome[0] == "defect")
    verified = attempted - failed - defects
    print(f"{passes} passes of {sum(map(len, pool))} ops in {loop_s:.1f} s: {attempted} attempted,"
          f" {verified} verified, {failed} failed, {defects} hit a known defect"
          f" (failed_ratio {(failed + defects) / attempted:.4f}, raw {verified / loop_s:.3f} verified op/s)")
    paces = pace_around(records, probes)
    ordered = sorted(paces)
    print(f"  reference work around ops: {1e3 * ordered[len(ordered) // 20]:.3f} ms at the 5th percentile,"
          f" {1e3 * statistics.median(ordered):.3f} ms median, {1e3 * ordered[-1]:.3f} ms max")
    seen = set()
    for rec in records:
        if rec.outcome and rec.cell not in seen:
            seen.add(rec.cell)
            count = sum(1 for other in records if other.cell == rec.cell and other.outcome)
            total = sum(1 for other in records if other.cell == rec.cell)
            print(f"  {rec.outcome[0]} {' '.join(map(str, rec.cell[:3]))}: {count}/{total}: {rec.outcome[1]}")

    if args.trace:
        metrics = per_layer(tracer, records, paces, args)
    else:
        metrics = end_to_end(records, paces, setups)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def ignore(key, amount):
    pass


def pace_around(records, probes):
    """Median reference-work time over the probes within PACE_WINDOW_S of
    each op, and at least the two probes on either side of it.

    A single probe is short and can be hit by a pause of the whole process;
    the median over the window ignores that while still following slowdowns
    that last a second or more.
    """
    times = [when for when, _ in probes]
    paces = []
    for rec in records:
        before = bisect.bisect_right(times, rec.start)  # probes taken before the op
        lo = max(0, min(bisect.bisect_left(times, rec.start - PACE_WINDOW_S), before - 2))
        hi = max(bisect.bisect_right(times, rec.start + rec.latency + PACE_WINDOW_S), before + 2)
        paces.append(statistics.median(seconds for _, seconds in probes[lo:hi]))
    return paces


def steady(records, paces):
    """Latency in seconds of each record at the reference pace: scaled by
    REFERENCE_PACE_S over the reference work's time around the op, so the
    latency the op would have had on a machine doing the reference work in
    exactly REFERENCE_PACE_S."""
    return [rec.latency * REFERENCE_PACE_S / pace for rec, pace in zip(records, paces)]


def per_input(records, paces):
    """{input: (median steady latency ms, verified share)}."""
    cells = {}
    for rec, latency in zip(records, steady(records, paces)):
        cells.setdefault(rec.cell, []).append((latency, rec.outcome is None))
    return {
        cell: (statistics.median(x for x, _ in samples) * 1e3, sum(ok for _, ok in samples) / len(samples))
        for cell, samples in cells.items()
    }


def throughput(inputs):
    """Verified ops per second of library time, every input at its median."""
    return sum(share for _, share in inputs.values()) / (sum(ms for ms, _ in inputs.values()) / 1e3)


def end_to_end(records, paces, setups):
    inputs = per_input(records, paces)
    print("  median ms over a family's inputs, per tier (small, medium, large):")
    for family in sorted({cell[1] for cell in inputs}):
        row = []
        for tier in TIERS:
            ms = [inputs[c][0] for c in inputs if c[:2] == (tier, family)]
            row.append(f"{statistics.median(ms):12.3f}" if ms else f"{'-':>12}")
        print(f"    {family:28} " + " ".join(row))
    # every op at its input's median: the tail of slow inputs, not of the
    # moments the machine was slow
    passes = len(records) // len(inputs)
    p, value, beyond = tail([ms for ms, _ in inputs.values()], passes)
    print(f"  op_tail_ms is p{p} of {len(records)} ops, {beyond} beyond it, each at its input's median")
    metrics = {
        "ops_per_s": metric(throughput(inputs), "op/s"),
        "op_p50_ms": metric(statistics.median(ms for ms, _ in inputs.values()), "ms"),
        "op_tail_ms": metric(value, "ms"),
    }
    for tier in TIERS:
        tier_ms = [ms for cell, (ms, _) in inputs.items() if cell[0] == tier]
        metrics[f"op_ms.{tier}"] = metric(statistics.median(tier_ms), "ms")
    verified = sum(1 for rec in records if rec.outcome is None)
    metrics["verified_ratio"] = metric(verified / len(records), "1")
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = metric(statistics.median(setups), "s")
    return metrics


def per_layer(tracer, records, paces, args):
    traced_ms = sum(rec.latency for rec in records if rec.traced) * 1e3
    rates = {}
    for mode in (False, True):
        chosen = [(rec, pace) for rec, pace in zip(records, paces) if rec.traced == mode]
        rates[mode] = throughput(per_input([rec for rec, _ in chosen], [pace for _, pace in chosen]))
    plain_rate, traced_rate = rates[False], rates[True]
    per_layer_ns, per_fn_ns = tracer.busy_ns()
    calls_by_fn = {}
    for name_id in tracer.name_of:
        calls_by_fn[name_id] = calls_by_fn.get(name_id, 0) + 1

    print(f"  traced ops took {traced_ms:.1f} ms: {traced_rate:.3f} op/s traced, {plain_rate:.3f} op/s untraced")
    print(f"  {'span':32} {'calls':>8} {'busy ms':>11} {'share of traced':>16}")
    metrics = {
        "tracing_overhead": metric((plain_rate - traced_rate) / plain_rate, "1"),
        "trace.traced_ms": metric(traced_ms, "ms"),
        # the two layers every workload calls; other layers' busy time is a
        # share of trace.traced_ms, which is 0 where a workload bypasses them
        "parsing.busy_ms": metric(per_layer_ns["parsing"] / 1e6, "ms"),
        "algebras.busy_ms": metric(per_layer_ns["algebras"] / 1e6, "ms"),
    }
    for layer in LAYERS:
        busy = per_layer_ns[layer] / 1e6
        print(f"  {layer:32} {tracer.calls[layer]:8d} {busy:11.3f} {100 * busy / traced_ms:15.2f}%")
        metrics[f"{layer}.busy_pct"] = metric(100 * busy / traced_ms, "%")
        metrics[f"{layer}.calls"] = metric(tracer.calls[layer], "count")
        metrics[f"{layer}.errors"] = metric(tracer.errors[layer], "count")
    ids = {name: i for i, name in enumerate(tracer.names)}
    for prefix, fns in CALL_METRICS.items():
        busy = sum(per_fn_ns[fn] for fn in fns) / 1e6
        calls = sum(calls_by_fn.get(ids[fn], 0) for fn in fns)
        print(f"  {prefix:32} {calls:8d} {busy:11.3f} {100 * busy / traced_ms:15.2f}%")
        metrics[f"{prefix}.busy_pct"] = metric(100 * busy / traced_ms, "%")
    lines, paths = tracer.counts["parsing.lines"], tracer.counts["represent.paths"]
    graph_ms = per_fn_ns["parsing.parse_graph"] / 1e6
    represent_ms = tracer.inclusive_ns("represent.represent_at") / 1e6
    metrics["parsing.parse_graph.lines_per_s"] = metric(1e3 * lines / graph_ms if graph_ms else 0.0, "1/s")
    metrics["represent.paths_per_s"] = metric(1e3 * paths / represent_ms if represent_ms else 0.0, "1/s")
    print(f"  parse_graph: {lines} lines in {graph_ms:.3f} ms;"
          f" represent_at: {paths} paths in {represent_ms:.3f} ms including its child spans")
    for key in COUNTS:
        metrics[key] = metric(tracer.counts[key], "count")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path)
    print(f"  {len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    main()
