#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Runs every workload --runs times, round-robin across workloads (so slow
drifts of the machine hit all of them alike), each run with its own seed,
and prints per end-to-end metric the median, the quartiles of
statistics.quantiles(values, n=4), the spread (q3 - q1) / median, and the
metric's bound from BENCHMARK.json with the spread as a share of it.

    python3 ctlbench/steadiness.py --runs 10 --seconds 20 [--first-seed 1]
        [--workloads paper,scale,service] [--raw results.json]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=900)
    result = json.loads(out.stdout.strip().split("\n")[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--raw", default=None,
                        help="also write every run's metrics to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            metrics = run_once(w, args.first_seed + i, seconds)
            for name, v in metrics.items():
                values[w].setdefault(name, []).append(v)
            print(f"run {i + 1}/{args.runs} {w} done", file=sys.stderr,
                  flush=True)
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(values, f, indent=1)

    print(f"{args.runs} runs per workload, --seconds {seconds}, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print("| workload | metric | median | q1 | q3 | spread | bound | "
          "spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, v in values[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f} | {bound} | {spread / bound:.2f} |")


if __name__ == "__main__":
    main()
