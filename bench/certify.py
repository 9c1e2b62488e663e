"""Workload certify: decide graded isomorphism and build certificates from
algebra text.

One op: parse_algebra x2 -> is_graded_isomorphic (single summands) or
direct_sum_iso (sums) -> when isomorphic and single: iso_certificate ->
format_certificate -> parse_certificate -> apply_certificate, which must land
on the target.  Small-tier ops also replay the certificate on a seeded sample
GradedMatrix with conjugate_by_step, checking degree sets with
homogeneous_components the way `gradedlpa verify-cert` does.

Each tier crosses base x shift spread x shape x answer.  The truth is known
from construction: an isomorphic target is the source moved by a random
certificate; a non-isomorphic one has one shift moved to a residue (or, over
K, past the maximum) that changes the class.
"""

from __future__ import annotations

import itertools

from gen import TIERS, Case, composition, first_per_family, rng_for
from oracle import degree_set, expect, format_sum

NAME = "certify"

BASES = ("K", "small_m", "large_m")  # K, K[x^m] m in 2..7, K[x^m] m in 10^4..10^5
SPREADS = ("narrow", "wide")  # shifts in [0, 3n), or spread past 2^29 with |shift| < 2^31
SHAPES = ("single", "sum")  # one summand, or 2..20 summands against a permuted copy
ANSWERS = ("iso", "not")
CELLS = tuple(itertools.product(BASES, SPREADS, SHAPES, ANSWERS))
POOL = 1  # a pass is already 72 inputs; one variant keeps it short
N = {"medium": 1000, "large": 4000}  # small: n in 4..12, fixed per cell and variant
WIDE = 2**29  # source, global move and entry moves each stay within this, so
# every shift stays within the parser's 2^31


def _period(base, rng, slot, slots):
    if base == "K":
        return None
    if base == "small_m":
        return 2 + slot % 6
    # log-stratified over [10^4, 10^5): the cell's slot fixes the stratum,
    # the seed moves m a little inside it, so every run costs about the same
    return int(10 ** (4 + (slot + 0.4 + 0.2 * rng.random()) / slots))


def _source(rng, n, spread):
    if spread == "narrow":
        return [rng.randrange(0, 3 * n) for _ in range(n)]
    # one shift in each outer quarter, so every wide summand spreads past 2^29
    ends = [rng.randint(-WIDE, -WIDE // 2), rng.randint(WIDE // 2, WIDE)]
    return ends + [rng.randint(-WIDE, WIDE) for _ in range(n - 2)]


def _move(rng, shifts, period, spread, residue):
    """Shifts carried by a random certificate: permute, global shift, and
    entry shifts by multiples of the period.  Over a Laurent base the global
    shift is `residue` modulo the period."""
    out = list(shifts)
    rng.shuffle(out)
    if spread == "narrow":
        delta = rng.randrange(0, 3 * len(out))
    else:
        delta = rng.randint(-WIDE, WIDE)
    if period is not None:
        delta += residue - delta % period
        reach = 3 if spread == "narrow" else WIDE // period
        out = [s + period * rng.randint(-reach, reach) for s in out]
    return [s + delta for s in out]


def _break(rng, shifts, period):
    """Move one shift so that the isomorphism class changes."""
    out = list(shifts)
    if period is None:
        top = max(range(len(out)), key=out.__getitem__)
        out[top] += 1  # the spread grows by one
        return out
    counts = {}
    for s in out:
        counts[s % period] = counts.get(s % period, 0) + 1
    empty = next((r for r in range(period) if r not in counts), None)
    targets = sorted(counts) + ([empty] if empty is not None else [])
    for i in rng.sample(range(len(out)), len(out)):
        r = out[i] % period
        for t in targets:
            # the multiset of residue counts changes unless counts[t] == counts[r] - 1
            if t != r and counts.get(t, 0) != counts[r] - 1:
                out[i] += (t - r) % period
                return out
    raise AssertionError("no class-changing move exists")


def _matrix(rng, n, period):
    """Entries of a sample graded matrix over K[x^m]: degrees and coefficients
    drawn as `verify-cert` draws them, one nonzero term per entry so that the
    replay costs the same for every seed."""
    return [[{period * rng.randint(-3, 3): rng.choice((-1, 1)) * rng.randint(1, 9)} for _ in range(n)] for _ in range(n)]


def build(seed: int) -> list[list[Case]]:
    pool = []
    large = [i for i, c in enumerate(CELLS) if c[0] == "large_m"]
    for variant in range(POOL):
        cases = []
        for tier in TIERS:
            for index, (base, spread, shape, answer) in enumerate(CELLS):
                rng = rng_for(NAME, seed, variant, tier, index)
                replay = tier == "small" and shape == "single" and answer == "iso" and base != "K"
                n = N[tier] if tier != "small" else 4 + (index + variant) % 9
                # the period's slot rotates with cell, tier and variant but not
                # with the seed, so every run costs about the same
                slot = (index + 3 * TIERS.index(tier) + 5 * variant) % len(large)
                period = _period(base, rng, slot, len(large))
                if shape == "single":
                    parts = [n]
                else:
                    # 2..20 summands, fixed per cell; each gets at least two
                    # shifts, so each can be broken
                    k = 2 + (7 * index + 3 * variant) % (min(20, n // 2) - 1)
                    parts = [x + 1 for x in composition(rng, n - k, k)]
                left, right = [], []
                for j, size in enumerate(parts):
                    # in a sum only the first summand carries the large period,
                    # the rest are over K[x^m] with m in 2..7
                    p = period if j == 0 or base != "large_m" else rng.randint(2, 7)
                    residue = 0
                    if p is not None and tier != "small":
                        # iso_certificate tries rotations one at a time, each
                        # with a Counter of all n shifts: a residue r costs
                        # r * n, tens of seconds per op at n = 4000, m = 10^5;
                        # medium and large tiers keep r at min(7, m // 2)
                        residue = min(7, p // 2)
                    elif p is not None:
                        # the small tier covers [0, m) in strata
                        strata = len(SPREADS) * POOL
                        stratum = SPREADS.index(spread) + len(SPREADS) * variant
                        residue = int(p * (stratum + 0.4 + 0.2 * rng.random()) / strata)
                    src = _source(rng, size, spread)
                    left.append((p, tuple(src)))
                    right.append((p, tuple(_move(rng, src, p, spread, residue))))
                if answer == "not":
                    j = rng.randrange(len(right))
                    right[j] = (right[j][0], tuple(_break(rng, right[j][1], right[j][0])))
                rng.shuffle(right)
                data = {"left": format_sum(left), "right": format_sum(right)}
                want = {"iso": answer == "iso", "single": shape == "single", "target": right[0][1]}
                if (base, spread, shape) == ("K", "wide", "sum"):
                    # the seed's direct_sum_iso builds dense canonical forms
                    # and refuses spreads past 5M (ROADMAP open item 4)
                    want["known_defect"] = ("ValueError", "shift spread too large")
                if replay:
                    entries = _matrix(rng, n, period)
                    data["matrix"] = entries
                    want["degrees"] = degree_set(left[0][1], entries)
                cases.append(Case(tier, f"{base}/{spread}/{shape}/{answer}", data, want))
        pool.append(cases)
    return pool


def warm_up(pool):
    """One small-tier case per base, without the matrix replay."""
    return first_per_family(
        (c for c in pool[0] if c.tier == "small" and "matrix" not in c.data), lambda c: c.family.split("/")[0]
    )


def run(G, case: Case, note) -> dict:
    out = {}
    left = G.parse_algebra(case.data["left"])
    right = G.parse_algebra(case.data["right"])
    if not case.expect["single"]:
        out["iso"] = G.direct_sum_iso(left, right)
        return out
    a, b = left.summands[0], right.summands[0]
    out["iso"] = G.is_graded_isomorphic(a, b)
    if not out["iso"]:
        return out
    text = G.format_certificate(G.iso_certificate(a, b))
    steps = G.parse_certificate(text)
    out["landed"] = G.apply_certificate(a.shifts, steps, a.base)
    if "matrix" in case.data:
        rows = tuple(tuple(G.LaurentElement(cell) for cell in row) for row in case.data["matrix"])
        matrix = G.GradedMatrix(a.base, a.shifts, rows)
        seen = []
        for step in steps:
            before = set(G.homogeneous_components(matrix))
            matrix = G.conjugate_by_step(matrix, step)
            seen.append((before, set(G.homogeneous_components(matrix))))
        out["replay"] = (seen, matrix)
    return out


def check(case: Case, out: dict):
    want = case.expect
    expect(out["iso"] == want["iso"], f"isomorphic={out['iso']}, built {want['iso']}")
    if not (want["single"] and want["iso"]):
        return
    expect(out["landed"] == want["target"], "certificate does not land on the target")
    if "degrees" in want:
        seen, matrix = out["replay"]
        expect(all(b == want["degrees"] and a == want["degrees"] for b, a in seen), "a step moved a degree")
        expect(matrix.shifts == want["target"], "matrix replay does not land on the target")
        cells = [[dict(cell.items()) for cell in row] for row in matrix.entries]
        expect(degree_set(matrix.shifts, cells) == want["degrees"], "replayed matrix changed degrees")
