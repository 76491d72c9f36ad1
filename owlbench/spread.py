#!/usr/bin/env python3
"""Run owl-bench repeatedly and report each metric's median and spread.

Runs the command in BENCHMARK.json once per (workload, seed), from the
repository root, and prints for every metric of the final result line
its median, quartiles (statistics.quantiles(values, n=4)) and spread
(inter-quartile distance over the median), next to a third of the
metric's regression bound. Exits non-zero if a run fails or reports
itself incorrect. --save writes every run's result line, with its
detail line under "detail", as JSON.

    python3 owlbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads a,b] [--trace 0|1] [--save results.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--save", help="write every run's result and detail lines here (JSON)")
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            wall = time.time() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            line = json.loads(lines[-1])
            if not line["correct"] or line["failed"]:
                print(f"{workload} seed {seed}: incorrect ({line['failed']} failed)")
                ok = False
            line["wall_s"] = wall
            if len(lines) > 1:
                line["detail"] = json.loads(lines[-2])
            runs.append(line)
        results[workload] = runs
        if not runs:
            continue
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, process wall {min(walls):.1f}-{max(walls):.1f} s")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = f"  bound/3 {bound / 3:.3f} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:36s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}{mark}")
    if args.save:
        json.dump(results, open(args.save, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
