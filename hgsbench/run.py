#!/usr/bin/env python3
"""Builds the HGS benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 hgsbench/run.py --workload snapshot_warm --seed 1 --seconds 10 --trace 0

The library and the benchmark are compiled with CMake into
$CARGO_TARGET_DIR/hgsbench (default .bench_build/hgsbench). Before the
workload runs, the oracle's self-test must pass. The last line of standard
output is the run's JSON result; build logs go to standard error. A full
result line per run is appended to bench_results/results.jsonl, and a traced
run (--trace 1) writes its spans to bench_results/trace_<workload>_<seed>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("snapshot_warm", "history_cold", "live_append")


def fail(msg):
    print("hgsbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(src_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", src_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("configure failed")
    res = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "hgs_bench", "oracle_selftest"],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "hgsbench")
    build(here, build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "oracle_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("oracle self-test failed")

    out_dir = os.path.join(root, "bench_results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "hgs_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    res = subprocess.run(cmd)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
