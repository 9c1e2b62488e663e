"""Shared pieces of the workload generators."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

TIERS = ("small", "medium", "large")
# distinct inputs per (tier, family) cell; a pass runs each variant once
POOL = 2


@dataclass(frozen=True)
class Case:
    tier: str
    family: str
    data: dict  # what the library receives
    expect: dict  # what the benchmark's oracle says it must answer


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    return random.Random(":".join(map(str, (workload, seed) + parts)))


def vertex_names(rng: random.Random, count: int) -> list[str]:
    """Distinct identifiers with a seeded prefix and seeded numbering."""
    prefix = rng.choice("bcdfghjklmnpqrstwxz") + rng.choice("aeiou") + "_"
    return [f"{prefix}{x}" for x in rng.sample(range(10 * count), count)]


def composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A random split of total into parts positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def first_per_family(cases, family) -> list[Case]:
    seen: dict[str, Case] = {}
    for case in cases:
        seen.setdefault(family(case), case)
    return list(seen.values())


def digest(pool: list[list[Case]]) -> str:
    """Hash of every generated input, in run order."""
    h = hashlib.sha256()
    for round_cases in pool:
        for case in round_cases:
            h.update(repr((case.tier, case.family, sorted(case.data.items()))).encode())
    return h.hexdigest()
