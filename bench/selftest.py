"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seed N]

For every workload, on one whole cycle of its generated scenes:

1. the generator is deterministic: the same seed gives the same texts;
2. two traced passes give identical counts: nfev, steps, geodesic
   solves, edge_matrix calls, dump rows and branches;
3. dump digests match between EDGERAY_THREADS=1 and the default worker
   count;
4. the metric names and units run.py emits are exactly those
   BENCHMARK.json lists.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bootstrap

bootstrap.load_edgeray()

import run  # noqa: E402
from operation import edgeray_trace, trace_scene  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_pass(texts):
    tracer = Tracer()
    root = tracer.root(edgeray_trace)
    with instrument(tracer):
        outcomes = [trace_scene(text, root) for text in texts]
    layers = run.layer_totals(tracer)
    counters = tracer.counters()
    counts = {
        "nfev": counters.get("hamiltonian.nfev"),
        "steps": counters.get("hamiltonian.steps"),
        "geodesic_solves": layers["boundary.fiber_cogeodesic_flow"][0],
        "edge_matrix_calls": layers["metric.edge_matrix"][0],
        "rows": counters.get("rays_io.rows"),
        "branches": sum(o.branches for o in outcomes),
    }
    # Only the names and units are compared; the wall times are dummies.
    metrics = run.layer_metrics(tracer, layers, len(texts), 1.0, 1.0)
    return counts, outcomes, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    failures = 0

    def check(ok, label):
        nonlocal failures
        failures += not ok
        print("%s %s" % ("ok  " if ok else "FAIL", label), flush=True)

    os.environ.pop("EDGERAY_THREADS", None)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, generate in WORKLOADS.items():
        texts = generate(args.seed)
        check(texts == generate(args.seed), "%s: generator deterministic"
              % name)
        counts_a, outcomes, metrics = traced_pass(texts)
        digests = [o.digest for o in outcomes]
        counts_b, _, _ = traced_pass(texts)
        check(counts_a == counts_b, "%s: counts repeat %s" % (name, counts_a))
        check({k: u for k, (_, u) in metrics.items()} == declared,
              "%s: per-layer names and units match BENCHMARK.json" % name)
        os.environ["EDGERAY_THREADS"] = "1"
        try:
            single = [trace_scene(text).digest for text in texts]
        finally:
            del os.environ["EDGERAY_THREADS"]
        workers = run.edgeray_run.worker_count(max(o.rays for o in outcomes))
        check(single == digests and all(digests),
              "%s: dumps identical with 1 and %d workers" % (name, workers))
    check(run.END_TO_END_UNITS
          == {m["name"]: m["unit"] for m in bench["end_to_end"]},
          "end-to-end names and units match BENCHMARK.json")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
