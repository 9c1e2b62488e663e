"""Spans around calls into each layer of gradedlpa, recorded from outside.

``Tracer.install`` replaces selected public functions of the layer modules
with wrappers, in every gradedlpa module that holds a reference to them, so
calls made by the library itself (``corner_by_vertices`` calling
``represent``, the CLI calling ``synthesize``) are recorded too.  A span is
charged to the layer whose function was called; its self time is its
duration minus the time covered by its child spans.  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("parsing", "graphs", "represent", "algebras", "realize", "corners", "matrices", "cli")

# layer -> traced public functions; helpers called once per step or element
# (apply_step, least_rotation_index) are left to their caller's self time
TRACED = {
    "parsing": ("parse_graph", "parse_algebra", "parse_certificate", "format_certificate", "format_graph", "graph_to_dot"),
    "graphs": ("classify", "strongly_connected_components", "find_cycles", "paths_to_sink", "paths_to_cycle_vertex"),
    "represent": ("represent", "represent_at"),
    "algebras": ("canonical_form", "is_graded_isomorphic", "direct_sum_iso", "iso_certificate", "apply_certificate"),
    "realize": ("is_realizable", "is_realizable_sum", "synthesize", "synthesize_sum"),
    "corners": ("corner_by_vertices", "corner_by_indices"),
    "matrices": ("conjugate_by_step", "conjugate_by_certificate", "homogeneous_components"),
    "cli": ("main", "cmd_realizable", "cmd_synthesize", "cmd_represent", "cmd_iso", "cmd_canonical"),
}

# per-call metrics: metric prefix -> the traced functions it sums
CALL_METRICS = {
    "parsing.parse_graph": ("parsing.parse_graph",),
    "parsing.parse_algebra": ("parsing.parse_algebra",),
    "parsing.parse_certificate": ("parsing.parse_certificate",),
    "parsing.format": ("parsing.format_certificate", "parsing.format_graph", "parsing.graph_to_dot"),
    "graphs.classify": ("graphs.classify",),
    "graphs.scc": ("graphs.strongly_connected_components",),
    "corners.by_vertices": ("corners.corner_by_vertices",),
    "algebras.canonical_form": ("algebras.canonical_form",),
    "algebras.iso": ("algebras.is_graded_isomorphic", "algebras.direct_sum_iso"),
    "algebras.iso_certificate": ("algebras.iso_certificate",),
    "algebras.apply_certificate": ("algebras.apply_certificate",),
    "realize.is_realizable": ("realize.is_realizable", "realize.is_realizable_sum"),
    "realize.synthesize": ("realize.synthesize", "realize.synthesize_sum"),
    "matrices.conjugate": ("matrices.conjugate_by_step", "matrices.conjugate_by_certificate"),
    "matrices.components": ("matrices.homogeneous_components",),
    "cli.main": ("cli.main",),
    "cli.realizable": ("cli.cmd_realizable",),
    "cli.synthesize": ("cli.cmd_synthesize",),
    "cli.represent": ("cli.cmd_represent",),
    "cli.iso": ("cli.cmd_iso",),
    "cli.canonical": ("cli.cmd_canonical",),
}


def _spread(*algebras):
    return max(max(a.shifts) - min(a.shifts) for a in algebras)


def _count_classify(counts, args, result):
    counts["graphs.vertices"] += len(args[0].vertices)
    counts["graphs.edges"] += len(args[0].edges)
    counts["graphs.sinks"] += len(result.sinks)
    counts["graphs.cycles"] += len(result.cycles)


def _count_represent(counts, args, result):
    counts["represent.summands"] += len(result.sum.summands)
    counts["represent.paths"] += sum(a.n for a in result.sum.summands)


def _max_spread(counts, args, result):
    spread = _spread(*(a for a in args if hasattr(a, "shifts")))
    counts["algebras.max_shift_spread"] = max(counts["algebras.max_shift_spread"], spread)


def _count_terms(counts, args, result):
    counts["matrices.nonzero_terms"] += sum(len(cell.items()) for row in args[0].entries for cell in row)


# work counted at the boundary, from arguments and results only
COUNT_HOOKS = {
    "parsing.parse_graph": lambda c, args, r: c.update({"parsing.lines": args[0].count("\n")}),
    "graphs.classify": _count_classify,
    "graphs.strongly_connected_components": lambda c, args, r: c.update({"graphs.scc_runs": 1}),
    "represent.represent_at": _count_represent,
    "corners.corner_by_vertices": lambda c, args, r: c.update({"corners.kept_paths": sum(a.n for a in r.summands)}),
    "algebras.canonical_form": _max_spread,
    "algebras.is_graded_isomorphic": _max_spread,
    "algebras.iso_certificate": lambda c, args, r: c.update({"algebras.cert_steps": len(r)}),
    "realize.synthesize": lambda c, args, r: c.update({"realize.synth_vertices": len(r.vertices)}),
    "matrices.conjugate_by_step": lambda c, args, r: c.update({"matrices.steps_replayed": 1}),
    "matrices.homogeneous_components": _count_terms,
}

COUNTS = (
    "parsing.lines", "graphs.vertices", "graphs.edges", "graphs.sinks", "graphs.cycles", "graphs.scc_runs",
    "represent.summands", "represent.paths", "corners.kept_paths", "algebras.max_shift_spread",
    "algebras.cert_steps", "realize.synth_vertices", "matrices.steps_replayed", "matrices.nonzero_terms",
    "cli.json_bytes",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one column per span field; parent is -1 for a span called by the benchmark
        self.name_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.op_id = -1
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._last_error = None
        self._patches: list[tuple[object, str, object]] = []

    def note(self, key: str, amount: int):
        self.counts[key] += amount

    def _wrap(self, qualname: str, fn):
        layer = qualname.split(".", 1)[0]
        name_id = len(self.names)
        self.names.append(qualname)
        hook = COUNT_HOOKS.get(qualname)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_of.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op_of.append(self.op_id)
            self.end.append(0)
            self.self_ns.append(0)
            frame = [index, 0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.end[index] = t1
                self.self_ns[index] = t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                self.calls[layer] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "gradedlpa" or name.startswith("gradedlpa.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"gradedlpa.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def busy_ns(self) -> tuple[Counter, Counter]:
        """Self time summed per layer and per traced function."""
        per_layer: Counter = Counter()
        per_fn: Counter = Counter()
        for name_id, own in zip(self.name_of, self.self_ns):
            qualname = self.names[name_id]
            per_fn[qualname] += own
            per_layer[qualname.split(".", 1)[0]] += own
        return per_layer, per_fn

    def inclusive_ns(self, qualname: str) -> int:
        """Duration of the outermost spans of one traced function."""
        target = self.names.index(qualname)
        outermost = (
            end - start
            for name_id, start, end, parent in zip(self.name_of, self.start, self.end, self.parent)
            if name_id == target and (parent < 0 or self.name_of[parent] != target)
        )
        return sum(outermost)

    def write(self, path):
        spans = [
            [self.names[n], s, e, p, o]
            for n, s, e, p, o in zip(self.name_of, self.start, self.end, self.parent, self.op_of)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": spans}, handle)
