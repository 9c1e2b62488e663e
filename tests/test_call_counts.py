"""Work counted in calls, a scaling check that host load cannot move.

cProfile's total_calls for one op is the same on every run.  For each op
below, counted at three or four sizes, the calls per unit of size (a sink, a
loop-comet, a vertex of the line, a shift) at the largest size are at most
those at the smallest plus MARGIN: the op does linear work in calls.  An op
that counted the whole graph again once per summand would make that ratio
grow with the size.

Counts see calls only, not the work inside one builtin or inside a loop
that calls nothing; they add to the timed benchmark and replace no speed
claim.  A table of the exact counts is left for later.
"""

import contextlib
import cProfile
import io
import pstats
import random

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


OPS = {
    "star": (lambda size, _: _graph_op(_star, size), (100, 200, 400, 1600)),
    "comets": (lambda size, _: _graph_op(_comets, size), (50, 100, 200, 800)),
    "line": (lambda size, _: _graph_op(_line, size), (1000, 4000, 16000)),
    "iso_certificate": (_iso_op, (1000, 4000, 16000)),
    "verify-cert": (_verify_op, (1000, 4000, 16000)),
}


@pytest.mark.parametrize("build, sizes", OPS.values(), ids=OPS)
def test_calls_per_unit_do_not_grow(build, sizes, tmp_path):
    per_unit = [_calls(build(size, tmp_path)) / size for size in sizes]
    assert per_unit[-1] <= per_unit[0] * (1 + MARGIN), per_unit
