"""The benchmark's tracer wraps edgeray functions by name; keep them."""

import importlib.util
from pathlib import Path

import edgeray.run

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_exist():
    """Every (owner, attr) the tracer wraps is defined on its owner, so a
    rename or deletion fails here rather than inside the benchmark."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert not missing
    assert callable(edgeray.run.worker_count)
