"""Workload graph_families: read generated graphs and represent them.

One op: parse_graph -> classify -> represent -> canonical_form of each summand
-> is_realizable_sum -> corner_by_vertices on a seeded third of the vertices.
Every family is generated at three sizes; the seed picks vertex names, edge
order and the corner's vertex set, never the size.
"""

from __future__ import annotations

from math import comb, factorial

from gen import POOL, TIERS, Case, first_per_family, rng_for, vertex_names
from oracle import canonical, expand, expect, lib_form, lib_summands

NAME = "graph_families"

SIZES = {
    "star": (100, 200, 400),  # sinks
    "comets": (50, 100, 200),  # loop-comets with a tail of 3
    "line": (1000, 4000, 16000),  # vertices of L_n
    "diamond": (10, 13, 16),  # diamonds in the chain: 2^k paths
    # error path: complete digraphs are not no-exit; K_8 has more cycles
    # than classify's cap, so the seed raises TooManyCyclesError there
    "complete": ((5, 6), (7,), (8,)),
}
TAIL = 3


def _star(rng, sinks):
    names = vertex_names(rng, sinks + 1)
    center, leaves = names[0], names[1:]
    edges = [(center, s) for s in leaves]
    contrib = {center: [(s, None, 1, 1) for s in leaves]}
    contrib.update({s: [(s, None, 0, 1)] for s in leaves})
    shape = dict(sinks=sinks, cycles=0, no_exit=True, acyclic=True, comet=False)
    return names, edges, contrib, shape


def _comets(rng, k):
    names = vertex_names(rng, k * (TAIL + 1))
    edges, contrib = [], {}
    for j in range(k):
        chain = names[j * (TAIL + 1) : (j + 1) * (TAIL + 1)]
        base = chain[-1]
        edges.extend(zip(chain, chain[1:]))
        edges.append((base, base))
        for i, v in enumerate(chain):
            contrib[v] = [(base, 1, TAIL - i, 1)]
    shape = dict(sinks=0, cycles=k, no_exit=True, acyclic=False, comet=True)
    return names, edges, contrib, shape


def _line(rng, n):
    names = vertex_names(rng, n)
    edges = list(zip(names, names[1:]))
    contrib = {v: [(names[-1], None, n - 1 - i, 1)] for i, v in enumerate(names)}
    shape = dict(sinks=1, cycles=0, no_exit=True, acyclic=True, comet=False)
    return names, edges, contrib, shape


def _diamond(rng, k):
    # v0 -> {a1, b1} -> v1 -> ... -> vk; vk is the only sink
    names = vertex_names(rng, 3 * k + 1)
    v, a, b = names[: k + 1], names[k + 1 : 2 * k + 1], names[2 * k + 1 :]
    edges = []
    for i in range(1, k + 1):
        edges += [(v[i - 1], a[i - 1]), (v[i - 1], b[i - 1]), (a[i - 1], v[i]), (b[i - 1], v[i])]
    contrib = {v[i]: [(v[k], None, 2 * (k - i), 2 ** (k - i))] for i in range(k + 1)}
    for i in range(1, k + 1):
        for w in (a[i - 1], b[i - 1]):
            contrib[w] = [(v[k], None, 2 * (k - i) + 1, 2 ** (k - i))]
    shape = dict(sinks=1, cycles=0, no_exit=True, acyclic=True, comet=False)
    return names, edges, contrib, shape


def _complete(rng, n):
    names = vertex_names(rng, n)
    edges = [(x, y) for x in names for y in names if x != y]
    cycles = sum(comb(n, length) * factorial(length - 1) for length in range(2, n + 1))
    shape = dict(sinks=0, cycles=cycles, no_exit=False, acyclic=False, comet=False)
    return names, edges, None, shape


BUILDERS = {"star": _star, "comets": _comets, "line": _line, "diamond": _diamond, "complete": _complete}


def build(seed: int) -> list[list[Case]]:
    pool = []
    for variant in range(POOL):
        cases = []
        for t, tier in enumerate(TIERS):
            for family, sizes in SIZES.items():
                size = sizes[t]
                if isinstance(size, tuple):
                    size = size[variant % len(size)]
                rng = rng_for(NAME, seed, variant, tier, family)
                names, edges, contrib, shape = BUILDERS[family](rng, size)
                rng.shuffle(edges)
                text = "".join(f"{x} -> {y}\n" for x, y in edges)
                chosen = tuple(sorted(rng.sample(names, max(1, len(names) // 3))))
                want = {"shape": shape}
                if contrib is None:
                    want["error"] = "NotNoExitError"
                    if len(names) == 8:
                        # the seed's classify gives up past 10,000 cycles
                        # before it checks no-exit (ROADMAP open item 2)
                        want["known_defect"] = ("TooManyCyclesError", "more than 10000 cycles")
                else:
                    summands = expand(contrib)
                    want["summands"] = summands
                    want["forms"] = {s: canonical(*s) for s in summands}
                    want["corner"] = expand(contrib, set(chosen))
                cases.append(Case(tier, family, {"text": text, "chosen": chosen}, want))
        pool.append(cases)
    return pool


def warm_up(pool):
    """One small-tier case per family."""
    return first_per_family((c for c in pool[0] if c.tier == "small"), lambda c: c.family)


def run(G, case: Case, note) -> dict:
    out = {}
    g = G.parse_graph(case.data["text"])
    out["info"] = G.classify(g)
    if "error" in case.expect:
        try:
            G.represent(g)
        except G.NotNoExitError:
            out["error"] = "NotNoExitError"
        return out
    rep = G.represent(g)
    out["sum"] = rep.sum
    out["forms"] = [G.canonical_form(a) for a in rep.sum.summands]
    out["verdict"] = G.is_realizable_sum(rep.sum)
    out["corner"] = G.corner_by_vertices(g, case.data["chosen"])
    return out


def check(case: Case, out: dict):
    want, info = case.expect, out["info"]
    shape = want["shape"]
    expect(info.no_exit == shape["no_exit"], f"no_exit {info.no_exit}")
    expect(info.acyclic == shape["acyclic"], f"acyclic {info.acyclic}")
    expect(info.comet_per_component == shape["comet"], f"comet {info.comet_per_component}")
    expect(len(info.sinks) == shape["sinks"], f"{len(info.sinks)} sinks, expected {shape['sinks']}")
    expect(len(info.cycles) == shape["cycles"], f"{len(info.cycles)} cycles, expected {shape['cycles']}")
    if "error" in want:
        expect(out.get("error") == want["error"], f"represent did not raise {want['error']}")
        return
    expect(lib_summands(out["sum"]) == want["summands"], "represented sum differs")
    for a, form in zip(out["sum"].summands, out["forms"]):
        key = (a.base.period, tuple(sorted(a.shifts)))
        expect(lib_form(form) == want["forms"][key], f"canonical form {form}")
    expect(out["verdict"].ok, "a represented sum must be realizable")
    expect(lib_summands(out["corner"]) == want["corner"], "corner differs")
