"""Expected answers computed by the benchmark itself.

Nothing here imports gradedlpa.  Expected representations come from how each
graph was generated (which vertex sources which paths into which summand);
canonical forms, realizability verdicts and degree sets are recomputed here
from the definitions.  Library results are read only through public data
attributes (``summands``, ``base.period``, ``shifts``, ``k``, ``mults``) or the
CLI's JSON output.
"""

from __future__ import annotations

import re
from collections import Counter

# A summand is (period, shifts): period None over K, m over K[x^m, x^-m].


def expand(contrib, chosen=None):
    """Summands as sorted (period, shifts) pairs from per-vertex path counts.

    ``contrib`` maps a vertex to ``[(target, period, length, count), ...]``:
    the vertex sources ``count`` paths of ``length`` into the summand of
    ``target``.  With ``chosen`` only those vertices count, which is the
    corner at that vertex set.
    """
    lengths: dict[tuple, list[int]] = {}
    for vertex, items in contrib.items():
        if chosen is not None and vertex not in chosen:
            continue
        for target, period, length, count in items:
            lengths.setdefault((target, period), []).extend([length] * count)
    return sorted((period, tuple(sorted(ls))) for (_, period), ls in lengths.items())


def canonical(period, shifts):
    """('trivial', k, mults) over K; ('cyclic', m, least rotation) otherwise."""
    if period is None:
        low = min(shifts)
        mults = [0] * (max(shifts) - low + 1)
        for s in shifts:
            mults[s - low] += 1
        return ("trivial", len(mults) - 1, tuple(mults))
    mults = [0] * period
    for s in shifts:
        mults[s % period] += 1
    return ("cyclic", period, min(tuple(mults[i:] + mults[:i]) for i in range(period)))


def failing_index(period, shifts):
    """None when realizable, else the first violated multiplicity position."""
    if period is None:
        low = min(shifts)
        present = Counter(s - low for s in shifts)
        if present[0] != 1:
            return 0
        gap = next(i for i in range(len(present) + 1) if i not in present)
        return gap if gap <= max(present) else None
    present = {s % period for s in shifts}
    missing = [r for r in range(period) if r not in present]
    return missing[0] if missing else None


def lib_summands(total):
    """Sorted (period, shifts) pairs of a library DirectSumAlgebra."""
    out = []
    for a in total.summands:
        if a.n != len(a.shifts):
            raise Mismatch(f"summand declares n={a.n} with {len(a.shifts)} shifts")
        out.append((a.base.period, tuple(sorted(a.shifts))))
    return sorted(out)


def lib_form(form):
    if hasattr(form, "k"):
        return ("trivial", form.k, tuple(form.mults))
    return ("cyclic", form.period, tuple(form.mults))


_SUMMAND_RE = re.compile(r"M(\d+)\(K(?:\[x\^(\d+)\])?\)\(([^)]*)\)")


def parse_sum(text):
    """(period, shifts) per summand of an algebra expression without repeats."""
    out = []
    for part in text.replace(" ", "").split("(+)"):
        match = _SUMMAND_RE.fullmatch(part)
        if match is None:
            raise Mismatch(f"cannot read summand {part[:80]!r}")
        n, period, body = match.groups()
        shifts = tuple(int(x) for x in body.split(","))
        if len(shifts) != int(n):
            raise Mismatch(f"summand M{n} lists {len(shifts)} shifts")
        out.append((int(period) if period else None, shifts))
    return out


def format_sum(summands):
    return " (+) ".join(
        f"M{len(shifts)}({'K' if period is None else f'K[x^{period}]'})({','.join(map(str, shifts))})"
        for period, shifts in summands
    )


def degree_set(shifts, entries):
    """Degrees e + g_i - g_j of the nonzero terms of a matrix given as
    rows of {degree: coefficient} dicts."""
    return {
        deg + shifts[i] - shifts[j]
        for i, row in enumerate(entries)
        for j, cell in enumerate(row)
        for deg, coeff in cell.items()
        if coeff
    }


class Mismatch(Exception):
    """A library answer differs from the benchmark's expected answer."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)
