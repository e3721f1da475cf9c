"""Repeat benchmark runs over seeds and summarise their spread.

    python3 bench/collect.py --seeds 0-9
    python3 bench/collect.py --workloads edge_fan --seeds 0-4
    python3 bench/collect.py --seeds 0-9 --traced \
        --label "commit abc1234" --out bench/baselines/BENCH_1.json

Each run is its own ``run.py`` process, started as the command in
BENCHMARK.json names it, for ``run_seconds`` unless --seconds is given.
For every end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json; it also gives the range of the runs'
reference-drag ratios (see reference.py).  --traced adds one traced run
per workload (first seed) whose per-layer metrics go into the output
file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[6:]) for line in lines
               if line.startswith("# env "))
    res = json.loads(lines[-1])
    res["run_s"] = time.perf_counter() - t0
    for line in lines:
        if line.startswith("# unscaled wall: "):
            pairs = line[len("# unscaled wall: "):].split()
            res["unscaled"] = {k: float(v)
                               for k, v in zip(pairs[::2], pairs[1::2])}
        if line.startswith("# reference: "):
            res["drag"] = {where: float(ratio) for ratio, where in re.findall(
                r"([\d.]+) in the (benchmark process|set-up probes)", line)}
    return res, env


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    out = {"label": args.label, "seconds": args.seconds, "seeds": seeds,
           "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            res, env = one_run(workload, seed, args.seconds, 0)
            runs.append(res)
            print("%s seed %d (%.1f s): correct %s attempted %d failed %d  %s"
                  % (workload, seed, res["run_s"], res["correct"],
                     res["attempted"], res["failed"],
                     "  ".join("%s=%.5g" % (k, m["value"])
                               for k, m in res["metrics"].items())),
                  flush=True)
        entry = {
            "env": env,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            print("  %-16s median %-12.6g spread %.4f  (bound %s, third %.4f)"
                  % (name, stats["median"], stats["spread"],
                     bounds.get(name), bounds.get(name, 0.0) / 3.0),
                  flush=True)
        entry["unscaled"] = {}
        for name in runs[0]["unscaled"]:
            stats = summarise([r["unscaled"][name] for r in runs])
            entry["unscaled"][name] = stats
            print("  unscaled %-16s median %-12.6g spread %.4f"
                  % (name, stats["median"], stats["spread"]), flush=True)
        entry["drag_range"] = {
            where: [min(r["drag"][where] for r in runs),
                    max(r["drag"][where] for r in runs)]
            for where in runs[0]["drag"]}
        print("  reference drag range %s" % entry["drag_range"], flush=True)
        entry["run_s"] = summarise([r["run_s"] for r in runs])
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        if args.traced:
            res, _ = one_run(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: m["value"]
                                  for k, m in res["metrics"].items()}
        out["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
