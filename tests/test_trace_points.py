"""The perf harness's tracer wraps menurank callables by module and class
attribute; a rename on the library side must fail here, not in a traced run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves(tracing):
    assert tracing.WRAP_POINTS
    for owner, attr, layer in tracing.WRAP_POINTS:
        assert attr in owner.__dict__, f"{layer}: {owner.__name__}.{attr} is gone"
        assert callable(owner.__dict__[attr]), layer
