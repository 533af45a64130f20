#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with another seed, and prints for every end-to-end metric its
median, first and third quartile, and spread (interquartile distance over
the median) against the metric's bound, plus host.steal_share per run.
It flags every spread above a third of its bound, setup_s included, but
it only shows which runs were noisy; it never discards a run. It exits
with 1 when a spread is flagged or a run had failed ops.

    python3 benchmark/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S] [--trace 0|1]

Run it from the repository root.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    steal = re.search(r"host\.steal_share\D*([0-9.]+)", out.stdout)
    return result, float(steal.group(1)) if steal else float("nan")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    noisy = failed = False
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        steals, failures = [], 0
        for i in range(args.runs):
            seed = args.first_seed + i
            result, steal = run_once(bench["command"], workload, seed,
                                     args.seconds, args.trace)
            steals.append(steal)
            failures += result["failed"] if result["correct"] else max(1, result["failed"])
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"  {workload} seed {seed}: steal {steal:.4f}, " + ", ".join(
                f"{k} {v[-1]:.6g}" for k, v in values.items()), file=sys.stderr)
        failed |= failures > 0
        print(f"{workload}: {args.runs} runs, failed ops {failures}, "
              f"host.steal_share per run {['%.4f' % s for s in steals]}")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            else:
                ok = spread < bound / 3
                noisy |= not ok
                verdict = f"bound {bound:.2f} {'ok' if ok else 'NOISY (over a third of the bound)'}"
            print(f"  {m['name']:<22} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f}  {verdict}")
    return 1 if noisy or failed else 0


if __name__ == "__main__":
    sys.exit(main())
