#!/usr/bin/env python3
"""Simulator benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
simulator from ../src) into .bench_build/perfbench under the repository
root, runs one workload, and prints the benchmark's report.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload stream_small --seed 1 --seconds 10 --trace 0

Exits non-zero without printing a result if the sources are missing, the
build fails, or the benchmark does not produce a well-formed result.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("stream_small", "bulk_large", "mpi16_lossy")
DEADLINE_S = 170  # a built benchmark must finish within 180 s


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "bclperf"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bclperf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")
    started = time.monotonic()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_build", "perfbench-out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: benchmark timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: bclperf exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["attempted"] >= 1)
    except (ValueError, TypeError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines[:-1]))
    print(f"run took {time.monotonic() - started:.1f} s host time")
    print(lines[-1])


if __name__ == "__main__":
    main()
