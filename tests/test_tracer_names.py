"""The benchmark's tracer wraps library functions by name: every name it
traces must still be a function of its gradedlpa layer module, or a traced
benchmark run fails at install.  The tracer's source is read and run here
without importing it as a module, so nothing is written under bench/."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced() -> dict:
    namespace: dict = {}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["TRACED"]


TRACED = _traced()


@pytest.mark.parametrize("layer", TRACED)
def test_every_traced_name_resolves(layer):
    module = importlib.import_module(f"gradedlpa.{layer}")
    assert [name for name in TRACED[layer] if not callable(getattr(module, name, None))] == []
