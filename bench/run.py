"""edgeray benchmark: seeded ``edgeray trace`` workloads, timed in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One operation is one ``edgeray trace`` of one generated scene (see
operation.py).  A run cycles through the workload's scenes, generated
from --seed, until --seconds have passed, checks every output, and
prints as its last stdout line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

--seconds defaults to ``run_seconds`` in BENCHMARK.json.

--trace 0 reports the end-to-end metrics:
  setup_s         median over SETUP_PROBES fresh processes of the time
                  from process start until ready to trace (import
                  edgeray, parse the scenes, first spec.evaluator())
  trace_s.p50     median time of one successful operation; the sample
                  count is ``attempted``
  rays_per_s      incident rays traced successfully per second, over one
                  cycle of the scenes with each scene's rays and time
                  taken as its median over the run's repeats
  branches_per_s  integrated branches per second, over that cycle
  peak_rss_mb     peak resident memory of the benchmark process
Operation and set-up times are scaled to a fixed machine speed
(reference.py): each operation by reference solves in the benchmark's
thread before and after it, each set-up probe by reference solves the
probe runs once it is ready.  The unscaled wall values are printed on a
"# unscaled wall:" line, and the median reference times on a
"# reference:" line.  A run whose reference runs in the benchmark
process or the probes are more than DRAG_MAX times slower than in a
clean helper process is not ``correct``: the program slowed the process
it runs in, and scaling would hide that.
Failed operations (raised, or broke an output check) are ``failed``;
failed_frac = failed / attempted.  A run with a failed operation is not
``correct``: no operation of a benchmark workload may fail.

--trace 1 alternates each operation untraced and traced (tracer.py),
over whole cycles of the workload's scenes, and reports the per-layer
metrics per traced operation, the tracing overhead, and how much of the
traced wall time the wrapped layers' self times account for (all but the
root span's own self time); ``attempted`` counts the untraced and the
traced operations.

--workload all runs every workload in its own process and prints one
row per workload, then traces the near-miss rays that are known to fail
(workloads.near_miss) and prints their failure share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import bootstrap

bootstrap.load_edgeray()

import numpy  # noqa: E402
import scipy  # noqa: E402
from edgeray import run as edgeray_run  # noqa: E402
from operation import edgeray_trace, trace_scene  # noqa: E402
from reference import (DRAG_MAX, NOMINAL_S, ReferenceHelper,  # noqa: E402
                       SpeedGauge, current_cpu, reference_s)
from tracer import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, near_miss  # noqa: E402

SETUP_PROBES = 11
DRAG_SAMPLES = 31
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "trace_s.p50": "s",
    "rays_per_s": "1/s",
    "branches_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Layers whose call count and self time are per-layer metrics.
LAYER_METRICS = (
    "metric.edge_matrix", "metric.edge_matrix_derivs",
    "metric.fiber_cometric", "hamiltonian.integrate_interior",
    "hamiltonian.stable_manifold_launch", "gbb.detect_boundary_event",
    "boundary.geometric_partners", "boundary.fiber_cogeodesic_flow",
    "boundary.is_geometrically_related", "boundary.fiber_limit_point",
)
SELF_ONLY = (
    "hamiltonian.conserved_log", "gbb.trace_gbb", "gbb.branch_hyperbolic",
    "orders.annotate_path", "rays_io.build_dump", "rays_io.serialize_dump",
    "run.run_scenario",
)


def setup_probe(texts):
    """Set-up time of one fresh process, and its reference time after.

    Returns the wall time from process start until the probe is ready,
    the median of the reference solves the probe then runs on the vCPU
    it set up on, and that vCPU.
    """
    payload = json.dumps(texts).encode()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        tail = proc.stdout.read()
    finally:
        proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit("bench: set-up probe failed (exit %s)"
                         % proc.returncode)
    gauge = json.loads(tail)
    return elapsed, statistics.median(gauge["refs"]), gauge["cpu"]


def environment(max_rays):
    return {
        "nproc": os.cpu_count(),
        "workers": edgeray_run.worker_count(max_rays),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class Ledger:
    """Outcomes of a run, with the repeated-scene dump-identity check."""

    def __init__(self):
        self.outcomes = []
        self.digests = {}
        self.violations = []

    def record(self, index, outcome):
        if outcome.exit_class == 0:
            first = self.digests.setdefault(index, outcome.digest)
            if outcome.digest != first:
                outcome.violations.append(
                    "dump bytes differ from its first run")
        for message in outcome.violations:
            self.violations.append("scene %d: %s" % (index, message))
        if outcome.exit_class:
            print("# scene %d failed (exit %d): %s"
                  % (index, outcome.exit_class, outcome.error), flush=True)
        self.outcomes.append(outcome)

    @property
    def failed(self):
        return sum(1 for o in self.outcomes if not o.ok)


def timed_run(texts, seconds):
    ledger = Ledger()
    scaled = []
    with ReferenceHelper() as helper:
        # (wall, reference, vCPU) of each probe, then the helper's solves
        # on that vCPU.
        probes, probe_drag = [], []
        for _ in range(SETUP_PROBES):
            wall, ref, cpu = setup_probe(texts)
            probes.append((wall, ref))
            probe_drag.append(ref / statistics.median(
                helper(cpu) for _ in range(3)))
        gauge = SpeedGauge()
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            outcome = trace_scene(texts[i % len(texts)])
            scaled.append(gauge.scaled(outcome.wall_s))
            ledger.record(i % len(texts), outcome)
            i += 1
        pairs = []
        for _ in range(DRAG_SAMPLES):
            ref = reference_s()
            pairs.append((ref, helper(current_cpu())))
    helper_s = statistics.median(h for _, h in pairs)
    drag = {
        "benchmark process": statistics.median(r / h for r, h in pairs),
        "set-up probes": statistics.median(probe_drag),
    }
    for where, ratio in drag.items():
        if ratio > DRAG_MAX:
            ledger.violations.append(
                "reference solve %.3fx slower in the %s than in a helper "
                "process (limit %g): scaled times are not valid"
                % (ratio, where, DRAG_MAX))
    outcomes = ledger.outcomes
    ok = [k for k, o in enumerate(outcomes) if o.ok]
    if not ok:
        raise SystemExit("bench: no operation succeeded")
    # Throughput of one cycle of scenes, each at its median over repeats.
    repeats = [range(j, len(outcomes), len(texts))
               for j in range(min(len(texts), len(outcomes)))]
    rays = sum(statistics.median(outcomes[k].rays * outcomes[k].ok
                                 for k in ks) for ks in repeats)
    branches = sum(statistics.median(outcomes[k].branches * outcomes[k].ok
                                     for k in ks) for ks in repeats)
    metrics = {}
    for label, times, setup in (
            ("wall", [o.wall_s for o in outcomes],
             [wall for wall, _ in probes]),
            ("scaled", scaled,
             [wall * NOMINAL_S / ref for wall, ref in probes])):
        cycle_s = sum(statistics.median(times[k] for k in ks)
                      for ks in repeats)
        metrics[label] = {
            "setup_s": statistics.median(setup),
            "trace_s.p50": statistics.median(times[k] for k in ok),
            "rays_per_s": rays / cycle_s,
            "branches_per_s": branches / cycle_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print("# unscaled wall: %s" % "  ".join(
        "%s %.6g" % kv for kv in metrics["wall"].items()))
    print("# reference: median %.6g s in a helper process, nominal %g s; "
          "%s (limit %g)"
          % (helper_s, NOMINAL_S, ", ".join(
              "%.4f in the %s" % (r, w) for w, r in drag.items()), DRAG_MAX))
    env = environment(max(o.rays for o in outcomes))
    return ledger, {k: (v, END_TO_END_UNITS[k])
                    for k, v in metrics["scaled"].items()}, env


def traced_run(texts, seconds):
    tracer = Tracer()
    root = tracer.root(edgeray_trace)
    ledger = Ledger()
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        for index, text in enumerate(texts):
            outcome = trace_scene(text)
            ledger.record(index, outcome)
            plain_s += outcome.wall_s
            with instrument(tracer):
                outcome = trace_scene(text, root)
            ledger.record(index, outcome)
            traced_s += outcome.wall_s
        if time.perf_counter() - start >= seconds:
            break
    n_ops = len(ledger.outcomes) // 2
    layers = layer_totals(tracer)
    metrics = layer_metrics(tracer, layers, n_ops, plain_s, traced_s)
    self_sum = sum(row[2] for row in layers.values())
    print("# per traced operation: layer, calls, inclusive s, self s, "
          "share of all self time")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        print("#   %-38s %9.1f %10.6f %10.6f %6.1f %%"
              % (name, row[0] / n_ops, row[1] / n_ops, row[2] / n_ops,
                 100.0 * row[2] / self_sum))
    print("#   wrapped layers cover %.4f of traced wall (root self "
          "%.6f s/op); tracing overhead %.4f"
          % (metrics["trace.self_cover"][0],
             layers["bench.operation"][2] / n_ops,
             metrics["trace.overhead_frac"][0]))
    env = environment(max(o.rays for o in ledger.outcomes))
    return ledger, metrics, env


def layer_totals(tracer):
    """{layer: [calls, total_s, self_s, raised]} summed over parents."""
    layers = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for (_, name), row in tracer.spans().items():
        acc = layers[name]
        for i, v in enumerate(row):
            acc[i] += v
    return layers


def layer_metrics(tracer, layers, n_ops, plain_s, traced_s):
    """Per-layer metrics per traced operation."""
    counters = tracer.counters()
    per_op = 1.0 / n_ops
    m = {}
    for name in LAYER_METRICS:
        m[name + ".calls"] = (layers[name][0] * per_op, "1/op")
        m[name + ".self_s"] = (layers[name][2] * per_op, "s/op")
    for name in SELF_ONLY:
        m[name + ".self_s"] = (layers[name][2] * per_op, "s/op")
    m["metric.evaluator_build_s"] = (
        layers["metric.evaluator_build"][1] * per_op, "s/op")
    m["scenes.parse_s"] = (layers["scenes.parse"][1] * per_op, "s/op")
    m["hamiltonian.integrate_interior.nfev"] = (
        counters.get("hamiltonian.nfev") * per_op, "1/op")
    m["hamiltonian.integrate_interior.steps"] = (
        counters.get("hamiltonian.steps") * per_op, "1/op")
    m["hamiltonian.max_p_rel"] = (counters.get("hamiltonian.max_p_rel"),
                                  "ratio")
    m["gbb.event_residual_max"] = (counters.get("gbb.event_residual_max"),
                                   "ratio")
    launches = layers["hamiltonian.stable_manifold_launch"]
    m["gbb.launch_ok_ratio"] = (
        (launches[0] - launches[3]) / launches[0] if launches[0] else 0.0,
        "ratio")
    m["gbb.truncated"] = (counters.get("gbb.truncated") * per_op, "1/op")
    shots = tracer.spans().get(("boundary.geometric_partners",
                                "boundary.fiber_geodesic_point"), [0])[0]
    m["boundary.partner_yield"] = (
        counters.get("boundary.partners") / shots if shots else 0.0, "ratio")
    m["rays_io.rows"] = (counters.get("rays_io.rows") * per_op, "1/op")
    m["rays_io.dump_bytes"] = (counters.get("rays_io.dump_bytes") * per_op,
                               "B/op")
    m["run.workers"] = (counters.get("run.workers"), "count")
    _, root_s, root_self_s, _ = layers["bench.operation"]
    m["trace.wall_s"] = (traced_s * per_op, "s/op")
    m["trace.untraced_wall_s"] = (plain_s * per_op, "s/op")
    m["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    m["trace.self_cover"] = (1.0 - root_self_s / root_s, "ratio")
    return m


def result_line(ledger, metrics):
    return json.dumps({
        "correct": not ledger.violations and ledger.failed == 0,
        "attempted": len(ledger.outcomes),
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def report(seed, seconds):
    """One row per workload, each run in its own process, then near misses."""
    rows = {}
    print("%-17s %17s %6s %16s %20s %16s %11s %19s %7s"
          % ("workload", "trace_s.p50 [s]", "n", "rays_per_s [1/s]",
             "branches_per_s [1/s]", "peak_rss_mb [MB]", "setup_s [s]",
             "failed_frac [ratio]", "correct"))
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        v = {k: m["value"] for k, m in res["metrics"].items()}
        rows[name] = res
        print("%-17s %17.4f %6d %16.3f %20.3f %16.1f %11.3f %19.4f %7s"
              % (name, v["trace_s.p50"], res["attempted"], v["rays_per_s"],
                 v["branches_per_s"], v["peak_rss_mb"], v["setup_s"],
                 res["failed"] / res["attempted"], res["correct"]),
              flush=True)
    ledger = Ledger()
    for index, text in enumerate(near_miss(seed)):
        ledger.record(index, trace_scene(text))
    print("near_miss (known failure, not a benchmark workload): %d of %d "
          "failed, failed_frac %.4f"
          % (ledger.failed, len(ledger.outcomes),
             ledger.failed / len(ledger.outcomes)))
    rows["near_miss"] = {"attempted": len(ledger.outcomes),
                         "failed": ledger.failed}
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    with open(BENCHMARK_JSON) as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The program picks its default worker count (min(nproc, rays)).
    os.environ.pop("EDGERAY_THREADS", None)
    if args.workload == "all":
        print(json.dumps(report(args.seed, args.seconds)))
        return 0
    texts = WORKLOADS[args.workload](args.seed)
    run_fn = traced_run if args.trace else timed_run
    ledger, metrics, env = run_fn(texts, args.seconds)
    print("# env %s" % json.dumps(env, sort_keys=True))
    for message in ledger.violations:
        print("# CHECK FAILED %s" % message)
    for name, (value, unit) in metrics.items():
        print("# %-44s %.6g %s" % (name, value, unit))
    print(result_line(ledger, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
