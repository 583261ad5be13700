#!/usr/bin/env python3
"""Steadiness mode: run each workload on several seeds and report spreads.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...] [--seconds S]

Runs the command in BENCHMARK.json once per (workload, seed), from the
repository root, and prints for every metric its median, first and third
quartile (statistics.quantiles, n=4) and the quartile distance as a share
of the median next to the metric's bound. Each run's result line is
appended to .bench_out/steady.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    log = ROOT / ".bench_out" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            with log.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:40} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")
    if not args.trace:
        print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
