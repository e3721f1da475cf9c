"""The benchmark's tracer wraps edgeray functions by name; keep them.
And every scene of every benchmark workload passes the benchmark's own
output checks, so a change that breaks them fails here rather than only
in a timed run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import edgeray.run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    """bench/<name>.py as a module, loaded by path."""
    spec = importlib.util.spec_from_file_location("_bench_" + name,
                                                  BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    """Every (owner, attr) the tracer wraps is defined on its owner, so a
    rename or deletion fails here rather than inside the benchmark."""
    tracer = _load("tracer")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracer.TARGETS
               if attr not in owner.__dict__]
    assert not missing
    assert callable(edgeray.run.worker_count)


@pytest.mark.parametrize("name", ["interior_fan", "edge_fan",
                                  "geometric_sphere"])
def test_workload_scenes_pass_their_output_checks(name):
    """One cycle of the seed-0 scenes: each operation neither raises nor
    breaks operation.check_output (p_residual bound, flat-scene t_bar,
    sphere antipodes)."""
    operation, workloads = _load("operation"), _load("workloads")
    failed = []
    for k, text in enumerate(workloads.WORKLOADS[name](0)):
        outcome = operation.trace_scene(text)
        if not outcome.ok:
            failed.append((k, outcome.error, outcome.violations))
    assert not failed
