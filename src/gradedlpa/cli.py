"""Command-line front end.

Each command returns its report as (exit code, text, JSON payload) and
prints nothing; `main` alone writes the report, or the error, and picks the
exit code.  Exit codes: 0 = success or decided yes, 1 = decided no (with a
reason line prefixed 'reason:'), 2 = parse or validation error, 3 =
precondition violation (for example a graph that is not no-exit).  With
--json every report becomes a single JSON object on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebras import DirectSumAlgebra, TrivialForm, apply_certificate, canonical_form
from .algebras import direct_sum_iso, iso_certificate
from .corners import corner_by_indices, corner_by_vertices
from .errors import (
    AlgebraError,
    GraphError,
    InvalidStepError,
    NotRealizableError,
    ParseError,
    VertexNotOnCycleError,
)
from .parsing import (
    _ints,
    format_certificate,
    format_graph,
    graph_to_dot,
    parse_algebra,
    parse_certificate,
    parse_graph,
)
from .realize import SumVerdict, is_realizable_sum, synthesize, synthesize_sum
from .represent import CycleSummand, represent_at
from .graphs import _require_no_exit, classify


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_graph(path: str):
    return parse_graph(_read_text(path))


# (exit code, text, JSON payload)
Report = tuple[int, str, dict]


def _no(payload: dict, *reasons: str) -> Report:
    """The report of a decided no: 'no', then one 'reason:' line per reason."""
    return 1, "no\n" + "".join(f"reason: {reason}\n" for reason in reasons), payload


def _singles(refusal: str, *totals) -> list:
    """The one summand of each parsed expression; a sum among them is
    refused with ValueError(refusal)."""
    if any(len(total.summands) != 1 for total in totals):
        raise ValueError(refusal)
    return [total.summands[0] for total in totals]


def _graph_payload(g) -> dict:
    """The vertex names, and per edge [id, source, range], from the id columns."""
    return {"vertices": list(g.vertices), "edges": list(map(list, zip(*g._edge_columns())))}


def _cycle_payload(c) -> dict:
    return {"vertices": list(c.vertices), "edges": list(c.edges), "length": c.length}


def cmd_classify(args) -> Report:
    info = classify(_load_graph(args.graph))
    payload = {
        "finite": True,
        "acyclic": info.acyclic,
        "no_exit": info.no_exit,
        "comet_per_component": info.comet_per_component,
        "sinks": list(info.sinks),
        "regular": list(info.regular),
        "cycles": [_cycle_payload(c) for c in info.cycles],
    }
    flags = ("finite", "acyclic", "no_exit", "comet_per_component")
    lines = [f"{key.replace('_', '-')}: {'yes' if payload[key] else 'no'}" for key in flags]
    lines += [f"{key}: {', '.join(payload[key]) if payload[key] else '(none)'}" for key in ("sinks", "regular")]
    lines += [f"cycle: {' '.join(c['vertices'])} (length {c['length']})" for c in payload["cycles"]]
    return 0, "\n".join(lines) + "\n", payload


def _resolve_bases(g, choices):
    if not choices:
        return {}
    _require_no_exit(g)
    owner = {v: c for c in g._analysis.cycles for v in c.vertices}  # no-exit: the cycles are disjoint
    resolved = {}
    for spec in choices:
        name, _, base = spec.partition("=")
        if not name or not base:
            raise ParseError(f"--base expects cycle-vertex=base-vertex, got {spec!r}")
        if name not in owner:
            raise VertexNotOnCycleError(f"vertex {name!r} does not lie on any cycle")
        if owner[name] in resolved:
            raise ParseError(f"--base chooses a second base vertex for the cycle through {name!r}")
        resolved[owner[name]] = base
    return resolved


def _provenance_payload(summand, prov) -> dict:
    paths = [{"source": s, "length": l} for s, l in prov.paths]
    if isinstance(prov, CycleSummand):
        cycle = _cycle_payload(prov.cycle)
        return {"algebra": str(summand), "kind": "cycle", "cycle": cycle, "base": prov.base_vertex, "paths": paths}
    return {"algebra": str(summand), "kind": "sink", "sink": prov.sink, "paths": paths}


def cmd_represent(args) -> Report:
    g = _load_graph(args.graph)
    report = represent_at(g, _resolve_bases(g, args.base))
    if args.json:
        pairs = zip(report.sum.summands, report.provenance)
        return 0, "", {"sum": str(report.sum), "provenance": [_provenance_payload(a, p) for a, p in pairs]}
    lines = [str(report.sum)]
    for prov in report.provenance if args.provenance else ():
        if isinstance(prov, CycleSummand):
            target = prov.base_vertex
            lines.append(f"# cycle {' '.join(prov.cycle.vertices)} (base {target})")
        else:
            target = prov.sink
            lines.append(f"# sink {target}")
        lines.extend(f"{source} --({length})--> {target}" for source, length in prov.paths)
    return 0, "\n".join(lines) + "\n", {}


def cmd_canonical(args) -> Report:
    total = parse_algebra(args.expr)
    forms = [canonical_form(a) for a in total.summands]
    if args.json:
        return 0, "", {"forms": list(map(_form_payload, forms))}
    lines = [f"{a}: {form}" for a, form in zip(total.summands, forms)]
    return 0, "\n".join(lines) + "\n", {}


def _form_payload(f) -> dict:
    """The form's kind and size, and its "mults" where its text lists them, else its "positions" and "counts"."""
    head = {"kind": "trivial", "k": f.k} if isinstance(f, TrivialForm) else {"kind": "cyclic", "m": f.period}
    if f._listable:
        return {**head, "mults": list(f.mults)}
    return {**head, "positions": list(f._positions), "counts": list(f._counts)}


def cmd_iso(args) -> Report:
    left = parse_algebra(args.expr1)
    right = parse_algebra(args.expr2)
    if args.certificate:
        a, b = _singles("certificates are only produced for single matrix algebras", left, right)
    if not direct_sum_iso(left, right):
        reason = _iso_failure_reason(left, right)
        return _no({"isomorphic": False, "reason": reason}, reason)
    if not args.certificate:
        return 0, "yes\n", {"isomorphic": True}
    text = format_certificate(iso_certificate(a, b))
    return 0, "yes\n" + text, {"isomorphic": True, "certificate": text.splitlines()}


def _iso_failure_reason(left, right) -> str:
    """Why two expressions are not graded isomorphic: for two single
    algebras the bases, the sizes or the canonical forms that differ."""
    if len(left.summands) != 1 or len(right.summands) != 1:
        return "no bijection of summands matches canonical forms"
    (a,), (b,) = left.summands, right.summands
    if a.base != b.base:
        return f"bases differ: {a.base} vs {b.base}"
    if a.n != b.n:
        return f"sizes differ: {a.n} vs {b.n}"
    return f"canonical forms differ: {canonical_form(a)} vs {canonical_form(b)}"


def cmd_verify_cert(args) -> Report:
    left = parse_algebra(args.expr1)
    right = parse_algebra(args.expr2)
    a, b = _singles("verify-cert works on single matrix algebras", left, right)
    steps = parse_certificate(_read_text(args.certfile))
    # each valid step is a graded isomorphism, so the certificate holds
    # exactly when every step applies and the shifts land on b's
    if a.base != b.base:
        reason = _iso_failure_reason(left, right)
    else:
        try:
            final = apply_certificate(a.shifts, steps, a.base)
            reason = None if final == b.shifts else f"certificate lands on {final}, not on {b.shifts}"
        except InvalidStepError as exc:
            reason = f"invalid step: {exc}"
    if reason is None:
        return 0, "verified\n", {"verified": True}
    return _no({"verified": False, "reason": reason}, reason)


def cmd_realizable(args) -> Report:
    verdict = is_realizable_sum(parse_algebra(args.expr))
    failures = [{"summand": pos, "failing_index": v.failing_index, "reason": v.reason} for pos, v in verdict.failures]
    payload = {"ok": verdict.ok, "failures": failures}
    if verdict.ok:
        return 0, "yes\n", payload
    return _no(payload, *(f"summand {f['summand']}: {f['reason']}" for f in failures))


def cmd_synthesize(args) -> Report:
    total = parse_algebra(args.expr)
    single = len(total.summands) == 1
    try:
        g = synthesize(total.summands[0]) if single else synthesize_sum(total)
    except NotRealizableError as exc:
        reason = str(SumVerdict(False, ((1, exc.verdict),)) if single else exc.verdict)
        return _no({"ok": False, "reason": reason}, reason)
    if args.json and not (args.dot or args.output):
        return 0, "", _graph_payload(g)
    text = graph_to_dot(g) if args.dot else format_graph(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0, "", {"written": args.output, **_graph_payload(g)}
    return 0, text, {"dot": text} if args.dot else {}


def _parse_csv(raw: str, what: str) -> list[str]:
    items = [x.strip() for x in raw.split(",") if x.strip()]
    if not items:
        raise ParseError(f"--{what} needs a nonempty comma-separated list")
    return items


def cmd_corner(args) -> Report:
    if args.vertices:
        g = _load_graph(args.input)
        result = corner_by_vertices(g, _parse_csv(args.vertices, "vertices"))
    else:
        (summand,) = _singles("corner --indices works on a single matrix algebra", parse_algebra(args.input))
        try:
            indices = _ints(_parse_csv(args.indices, "indices"))  # read as certificate arguments are
        except ValueError:
            raise ParseError("--indices expects integers") from None
        result = DirectSumAlgebra((corner_by_indices(summand, indices),))
    return 0, str(result) + "\n", {"summands": [str(a) for a in result.summands]}


def cmd_emit_dot(args) -> Report:
    g = _load_graph(args.graph)
    text = graph_to_dot(g)
    return 0, text, {"dot": text}


@functools.cache  # one parser per process, shared by every call: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlpa",
        description="Graded matrix algebras and Leavitt path algebras of no-exit graphs.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON object instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a graph file ('-' for stdin)")
    p.add_argument("graph")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("represent", help="graded matricial representation of a no-exit graph")
    p.add_argument("graph")
    p.add_argument("--base", action="append", metavar="CYCLEVERTEX=BASE",
                   help="choose the base vertex for the cycle through CYCLEVERTEX")
    p.add_argument("--provenance", action="store_true", help="also list the contributing paths")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("canonical", help="canonical form of each summand of an expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("iso", help="decide graded isomorphism of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("--certificate", action="store_true", help="print a step-by-step certificate")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("verify-cert", help="check a certificate file against two algebras")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.add_argument("certfile")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("realizable", help="decide Leavitt path algebra realizability")
    p.add_argument("expr")
    p.set_defaults(func=cmd_realizable)

    p = sub.add_parser("synthesize", help="synthesize a witness graph for a realizable expression")
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the graph text format")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("corner", help="graded corner by vertices (of a graph) or indices (of an algebra)")
    p.add_argument("input", help="graph file with --vertices, algebra expression with --indices")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vertices", metavar="A,B,...")
    group.add_argument("--indices", metavar="1,3,...")
    p.set_defaults(func=cmd_corner)

    p = sub.add_parser("emit-dot", help="render a graph file as DOT")
    p.add_argument("graph")
    p.set_defaults(func=cmd_emit_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text, payload = args.func(args)
        sys.stdout.write(json.dumps(payload) + "\n" if args.json else text)
        return code
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
