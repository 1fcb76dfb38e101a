#!/usr/bin/env python3
"""Build the platform benchmark from source and run one workload.

    python3 platbench/run.py --workload spec|serve|churn --seed N \
        --seconds S --trace 0|1 [--inject CHECK]

Run it from the root of a checkout. The first run configures and builds
.bench_build/ (the VM library from src/ plus the platbench driver); later
runs only bring that build up to date. Each run's full report, and with
--trace 1 its spans, go to .bench_out/. Build output goes to standard
error; the last line of standard output is the run's JSON result, and the
exit code is the driver's (0 only for a run whose outputs checked out).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "platbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "vm.h")):
        sys.exit("platbench: no VM sources in %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "platbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("platbench: build failed: %s" % " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["spec", "serve", "churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--inject", help="break one output check on purpose "
                    "(see test_checkers.py)")
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("platbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
