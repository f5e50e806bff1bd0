#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (see perfbench/README.md).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("ppi-clique", "chem-served", "chem-write")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
GQLSH = os.path.join("_build", "default", "bin", "gqlsh.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not all(os.path.exists(p) for p in ("dune-project", "lib", "bin/gqlsh.ml")):
        print("perfbench: not at the root of a source checkout "
              "(dune-project, lib/ and bin/gqlsh.ml are needed to build)",
              file=sys.stderr)
        return 2

    # The shared dune cache lives outside the working tree: keep every
    # build product inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe", "./bin/gqlsh.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--gqlsh", GQLSH])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
