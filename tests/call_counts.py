"""Work counted in calls: cProfile's total_calls of one op, the same on
every run, for each op below at three or four sizes.  The ops are graph
families parsed, classified, represented, cut into corners and checked for
realizability (a sink, a loop-comet, a vertex of the line, a diamond, a
witness summand per unit), classify of complete digraphs (per listed cycle)
and of a ring with one exit edge named in ring order or shuffled (per
vertex), iso_certificate and verify-cert (per shift), canonical_form (per
op) and parse_algebra of a sum (per summand).

Counts see calls only, not the work inside one builtin or inside a loop
that calls nothing; they add to the timed benchmark and replace no speed
claim.  tests/work_pins.json holds the exact total calls of every op at each
of its sizes, one entry per Python major.minor.  This module imports
neither pytest nor hypothesis, so it runs under any supported interpreter;
tests/test_call_counts.py asserts its counts in tier-1.  With PYTHONPATH=src:

    python tests/call_counts.py          print the calls per unit of every op
                                         at each of its sizes as one JSON
                                         object
    python tests/call_counts.py --check  print each count that differs from
                                         the table; exit 1 when one does and
                                         the running version has an entry
    python tests/call_counts.py --write  record the running version's entry
                                         again, and print each count that
                                         moved, old -> new
"""

import contextlib
import cProfile
import gc
import io
import json
import math
import pstats
import random
import sys
import tempfile
from pathlib import Path

import gradedlpa as G
from gradedlpa.cli import main

TAIL = 3  # vertices on a loop-comet's tail
PINS = Path(__file__).with_name("work_pins.json")
VERSION = "%d.%d" % sys.version_info[:2]


def _calls(op) -> int:
    # with the collector off, no gc callback (hypothesis installs one) is counted
    enabled = gc.isenabled()
    gc.disable()
    profile = cProfile.Profile()
    profile.enable()
    try:
        op()
    finally:
        profile.disable()
        if enabled:
            gc.enable()
    return pstats.Stats(profile).total_calls


def _star(sinks):
    names = [f"v{i}" for i in range(sinks + 1)]
    return names, [(names[0], sink) for sink in names[1:]]


def _comets(k):
    names = [f"v{i}" for i in range(k * (TAIL + 1))]
    edges = []
    for j in range(0, len(names), TAIL + 1):
        chain = names[j : j + TAIL + 1]
        edges += zip(chain, chain[1:])
        edges.append((chain[-1], chain[-1]))
    return names, edges


def _line(n):
    names = [f"v{i}" for i in range(n)]
    return names, list(zip(names, names[1:]))


def _line_named(shuffled):
    """The line L_n on zero-padded names, whose name order is the line's
    order, or with those names dealt out at random."""

    def family(n):
        names = [f"v{i:05}" for i in range(n)]
        if shuffled:
            random.Random(n).shuffle(names)
        return names, list(zip(names, names[1:]))

    return family


def _witness(k):
    """The synthesize_sum witness of k summands, alternating K and K[x^3],
    twenty shifts each: sink trees and loop-comets side by side in one graph."""
    forms = ["M20(K)(0,1,1,2,2,2,3,3,3,3,4,4,4,4,4,5,5,5,5,5)", "M20(K[x^3])(0,1,2,0,1,2,3,4,5,6,7,8,9,1,2,3,4,5,6,7)"]
    g = G.synthesize_sum(G.parse_algebra(" (+) ".join(forms[j % 2] for j in range(k))))
    return list(g.vertices), [(e.source, e.range) for e in g.edges]


def _diamonds(k):
    # j0 -> {a1, b1} -> j1 -> ... -> jk: 2^k paths from j0 to the one sink
    names = [f"j{i}" for i in range(k + 1)] + [f"{x}{i}" for i in range(1, k + 1) for x in "ab"]
    edges = []
    for i in range(1, k + 1):
        edges += [(f"j{i - 1}", f"a{i}"), (f"j{i - 1}", f"b{i}"), (f"a{i}", f"j{i}"), (f"b{i}", f"j{i}")]
    return names, edges


def _graph_op(family, size):
    """An op like the graph_families benchmark's: parse, classify, represent,
    a canonical form per summand, the realizability verdict, and the corner
    at every third vertex (a star's center among them)."""
    names, edges = family(size)
    random.Random(size).shuffle(edges)
    text = "".join(f"{x} -> {y}\n" for x, y in edges)

    def op():
        g = G.parse_graph(text)
        G.classify(g)
        rep = G.represent(g)
        for a in rep.sum.summands:
            G.canonical_form(a)
        assert G.is_realizable_sum(rep.sum).ok
        G.corner_by_vertices(g, names[::3])

    return op


def _complete_op(n, _):
    """classify of the complete digraph on n vertices, parsed from text: it is
    not no-exit, so classify lists every cycle."""
    names = [f"v{i}" for i in range(n)]
    edges = [(x, y) for x in names for y in names if x != y]
    random.Random(n).shuffle(edges)
    text = "".join(f"{x} -> {y}\n" for x, y in edges)
    return lambda: G.classify(G.parse_graph(text))


def _cycles_of_complete(n):
    return sum(math.comb(n, k) * math.factorial(k - 1) for k in range(2, n + 1))


def _ring_exit(shuffled):
    """classify of a ring of n vertices with one edge leaving it, on
    zero-padded names in ring order, or with those names dealt out at random."""

    def build(n, _):
        names = [f"v{i:05}" for i in range(n + 1)]
        if shuffled:
            random.Random(n).shuffle(names)
        ring = names[:n]
        edges = [*zip(ring, ring[1:] + ring[:1]), (ring[-1], names[n])]
        g = G.parse_graph("".join(f"{x} -> {y}\n" for x, y in edges))
        return lambda: G.classify(g)

    return build


def _isomorphic_pair(n, m=5):
    """Two isomorphic algebras of size n over K[x^m]: b's shifts are a's,
    shuffled, moved by 3 and each by a multiple of m."""
    rng = random.Random(n)
    shifts = [rng.randrange(4 * m) for _ in range(n)]
    moved = [s + 3 + m * rng.randrange(-2, 3) for s in shifts]
    rng.shuffle(moved)
    base = G.GradedBase.laurent(m)
    return G.ShiftedMatrixAlgebra.from_shifts(base, shifts), G.ShiftedMatrixAlgebra.from_shifts(base, moved)


def _iso_op(n, _):
    a, b = _isomorphic_pair(n)
    return lambda: G.iso_certificate(a, b)


def _verify_op(n, tmp_path):
    a, b = _isomorphic_pair(n)
    path = tmp_path / f"{n}.cert"
    path.write_text(G.format_certificate(G.iso_certificate(a, b)))
    argv = ["verify-cert", str(a), str(b), str(path)]

    def op():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == "verified\n"

    return op


def _canonical_op(size, _):
    """canonical_form and its str for two-shift algebras of a fresh class
    form: a spread of size over K, and over K[x^size]."""

    def op():
        for base, shifts in ((G.GradedBase.trivial(), (0, size)), (G.GradedBase.laurent(size), (0, 1))):
            str(G.canonical_form(G.ShiftedMatrixAlgebra.from_shifts(base, shifts)))

    return op


def _parse_op(summands, _):
    """parse_algebra of a sum of alternating K[x^5] and K summands."""
    text = " (+) ".join(("M3(K[x^5])(1,2,3)", "M2(K)(0,4)")[j % 2] for j in range(summands))
    return lambda: G.parse_algebra(text)


def _same(size):
    return size


# per op: the function that builds it, its sizes, and the units of work at a size
OPS = {
    "star": (lambda size, _: _graph_op(_star, size), (100, 200, 400, 1600), _same),
    "comets": (lambda size, _: _graph_op(_comets, size), (50, 100, 200, 800), _same),
    "line": (lambda size, _: _graph_op(_line, size), (1000, 4000, 16000), _same),
    "line_named_in_order": (lambda size, _: _graph_op(_line_named(False), size), (1000, 4000, 16000), _same),
    "line_named_shuffled": (lambda size, _: _graph_op(_line_named(True), size), (1000, 4000, 16000), _same),
    "witness": (lambda size, _: _graph_op(_witness, size), (10, 40, 160), _same),
    "diamond": (lambda size, _: _graph_op(_diamonds, size), (10, 20, 40, 160), _same),
    "complete": (_complete_op, (5, 6, 7), _cycles_of_complete),
    "ring_exit_in_order": (_ring_exit(False), (100, 200, 400), _same),
    "ring_exit_shuffled": (_ring_exit(True), (100, 200, 400), _same),
    "iso_certificate": (_iso_op, (1000, 4000, 16000), _same),
    "verify-cert": (_verify_op, (1000, 4000, 16000), _same),
    "parse_sum": (_parse_op, (10, 100, 1000), _same),
    # one op: its calls do not grow with the spread or period, dense str or sparse
    "canonical": (_canonical_op, (10**3, 10**6, 10**9), lambda size: 1),
}
def _total_calls(name, tmp_path) -> dict[str, int]:
    """The op's total calls at each of its sizes, keyed by the size's str.
    One run at the smallest size first fills what a process fills once (the
    argument parser, the regex and ABC caches), so no count depends on what
    ran before it."""
    build, sizes, _ = OPS[name]
    build(sizes[0], tmp_path)()
    return {str(size): _calls(build(size, tmp_path)) for size in sizes}


def _per_unit(name, totals) -> list[float]:
    _, sizes, units = OPS[name]
    return [totals[str(size)] / units(size) for size in sizes]


def _moved(pinned: dict, counted: dict) -> list[str]:
    """One line per (op, size) whose count differs between the two tables."""
    lines = []
    for name in sorted({*pinned, *counted}):
        old, new = pinned.get(name, {}), counted.get(name, {})
        for size in sorted({*old, *new}, key=int):
            if old.get(size) != new.get(size):
                lines.append(f"{name} {size}: {old.get(size, '-')} -> {new.get(size, '-')}")
    return lines


def _main(argv: list[str]) -> int:
    if argv not in ([], ["--check"], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    table = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        counted = {name: _total_calls(name, Path(tmp)) for name in OPS}
    if not argv:
        per_unit = {name: zip(counted[name], _per_unit(name, counted[name])) for name in OPS}
        print(json.dumps({name: {size: round(v, 3) for size, v in row} for name, row in per_unit.items()}))
        return 0
    moved = _moved(table.get(VERSION, {}), counted)
    for line in moved:
        print(line)
    if argv == ["--write"]:
        table[VERSION] = counted
        PINS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"Python {VERSION}: {len(moved)} counts moved")
        return 0
    known = VERSION in table
    print(f"Python {VERSION}: {len(moved)} counts differ" + ("" if known else ", and the table has no entry"))
    return 1 if moved and known else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
