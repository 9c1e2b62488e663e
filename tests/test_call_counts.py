"""Work counted in calls, a scaling check that host load cannot move.

cProfile's total_calls for one op is the same on every run.  For each op
below, counted at three or four sizes, the calls per unit of size (a sink, a
loop-comet, a vertex of the line, a diamond, a cycle of a complete digraph, a
shift) at the largest size are at most those at the smallest plus MARGIN:
the op does linear work in calls.  An op that counted the whole graph again
once per summand would make that ratio grow with the size.  On K_7 the
cycle listing must also stay within COMPLETE_BOUND calls per cycle.

Counts see calls only, not the work inside one builtin or inside a loop
that calls nothing; they add to the timed benchmark and replace no speed
claim.  A table of the exact counts is left for later;

    PYTHONPATH=src python tests/test_call_counts.py

prints the calls per unit of every op at each of its sizes as one JSON
object.
"""

import contextlib
import cProfile
import io
import json
import math
import pstats
import random
import tempfile
from pathlib import Path

import pytest

import gradedlpa as G
from gradedlpa.cli import main

MARGIN = 0.02  # of the smallest size's calls per unit
TAIL = 3  # vertices on a loop-comet's tail


def _calls(op) -> int:
    profile = cProfile.Profile()
    profile.enable()
    op()
    profile.disable()
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

    op()  # the argument parser is built once per process
    return op


def _same(size):
    return size


# per op: its builder, its sizes, and the units of work at a size
OPS = {
    "star": (lambda size, _: _graph_op(_star, size), (100, 200, 400, 1600), _same),
    "comets": (lambda size, _: _graph_op(_comets, size), (50, 100, 200, 800), _same),
    "line": (lambda size, _: _graph_op(_line, size), (1000, 4000, 16000), _same),
    "line_named_in_order": (lambda size, _: _graph_op(_line_named(False), size), (1000, 4000, 16000), _same),
    "line_named_shuffled": (lambda size, _: _graph_op(_line_named(True), size), (1000, 4000, 16000), _same),
    "witness": (lambda size, _: _graph_op(_witness, size), (10, 40, 160), _same),
    "diamond": (lambda size, _: _graph_op(_diamonds, size), (10, 20, 40, 160), _same),
    "complete": (_complete_op, (5, 6, 7), _cycles_of_complete),
    "iso_certificate": (_iso_op, (1000, 4000, 16000), _same),
    "verify-cert": (_verify_op, (1000, 4000, 16000), _same),
}
# calls per listed cycle on K_7, where listing a cycle makes no call per edge
COMPLETE_BOUND = 14


def _per_unit(name, tmp_path) -> list[float]:
    build, sizes, units = OPS[name]
    return [_calls(build(size, tmp_path)) / units(size) for size in sizes]


@pytest.mark.parametrize("name", OPS)
def test_calls_per_unit_do_not_grow(name, tmp_path):
    per_unit = _per_unit(name, tmp_path)
    assert per_unit[-1] <= per_unit[0] * (1 + MARGIN), per_unit


def test_line_calls_do_not_depend_on_naming_order(tmp_path):
    in_order = _per_unit("line_named_in_order", tmp_path)
    shuffled = _per_unit("line_named_shuffled", tmp_path)
    for a, b in zip(in_order, shuffled):
        assert abs(a - b) <= a * MARGIN, (in_order, shuffled)


def test_complete_graph_lists_cycles_in_few_calls(tmp_path):
    assert _cycles_of_complete(7) == 2365
    assert _per_unit("complete", tmp_path)[-1] <= COMPLETE_BOUND


if __name__ == "__main__":
    # calls per unit of every op at each of its sizes, as one JSON object
    with tempfile.TemporaryDirectory() as tmp:
        counts = {name: dict(zip(map(str, OPS[name][1]), _per_unit(name, Path(tmp)))) for name in OPS}
    print(json.dumps({name: {size: round(v, 3) for size, v in row.items()} for name, row in counts.items()}))
