"""Determinism self-check of the benchmark's generators and work counts.

Runs on the small tier only, so it takes a few seconds:

    PYTHONPATH=src python -m pytest -q bench/test_bench_determinism.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from gen import digest  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK_COUNTS = ("represent.paths", "algebras.cert_steps", "matrices.steps_replayed", "realize.synth_vertices")


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    build = bench.WORKLOADS[name].build
    assert digest(build(7)) == digest(build(7))
    assert digest(build(7)) != digest(build(8))


@pytest.fixture
def fresh_library():
    """The benchmark imports gradedlpa afresh; put back the modules other
    tests already hold."""
    saved = {k: v for k, v in sys.modules.items() if k == "gradedlpa" or k.startswith("gradedlpa.")}
    yield bench.import_library
    for name in [k for k in sys.modules if k == "gradedlpa" or k.startswith("gradedlpa.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _small_tier_counts(import_library, seed):
    """Work counts of every workload's small tier, traced, for one seed."""
    G = import_library()
    tracer = Tracer()
    tracer.install()
    try:
        for workload in bench.WORKLOADS.values():
            for case in workload.build(seed)[0]:
                if case.tier == "small":
                    latency, outcome = bench.run_op(workload, G, case, tracer.note)
                    assert outcome is None or outcome[0] == "defect", (workload.NAME, case.family, outcome)
    finally:
        tracer.uninstall()
    return {key: tracer.counts[key] for key in WORK_COUNTS}


def test_same_seed_same_work_counts(fresh_library):
    first = _small_tier_counts(fresh_library, 3)
    assert all(first.values()), first
    assert _small_tier_counts(fresh_library, 3) == first
