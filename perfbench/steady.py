#!/usr/bin/env python3
"""Steadiness report: run every workload repeatedly, each time with
another seed, and print each end-to-end metric's median and spread.

Usage (from the root of a source checkout):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median -- the
figure each metric's bound in BENCHMARK.json is compared with. The
share of failed operations is printed too: it must be the same in every
run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(bench, workload, seed, trace):
    t0 = time.monotonic()
    out = subprocess.run(
        ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workload or names:
        results = [run_once(bench, workload, args.first_seed + i, 0)
                   for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: {args.runs} runs of {min(walls):.1f}-{max(walls):.1f} s "
              f"wall, all correct: "
              f"{all(r['correct'] for r in results)}, failed share(s): "
              + ", ".join(f"{s:.6f}" for s in shares))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:14s} median {med:12.4f} {unit:4s} IQR {q3 - q1:10.4f} "
                  f"spread {spread:6.3f} bound {bound:5.2f}"
                  f"{'  OVER BOUND' if spread > bound and name != 'setup_s' else ''}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
