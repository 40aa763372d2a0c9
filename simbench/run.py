#!/usr/bin/env python3
"""Builds and runs the simulator benchmark.

    python3 simbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Paths are resolved from this file, so it runs from any directory. Every run
configures and builds simbench/ with CMake in Release mode into
$CARGO_TARGET_DIR/simbench (default .bench_build/simbench under the
repository root); after the first run that only rebuilds what changed. Build output goes to
stderr; the benchmark's report goes to stdout and ends with one JSON line.
See simbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-grid", "paper-grid-recorded", "cluster-drain", "cluster-drain-sharded"]
# A run takes --seconds plus set-up, at most one pass past the deadline and
# the sharded workload's serial check, about 8 s in all; this bounds the child
# if it hangs, so that a 50-second run still ends within 180 seconds.
GRACE_SECONDS = 100


def build():
    """Configures and builds simbench (a no-op when up to date); returns the binary's path."""
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "simbench")
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("simbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "simbench")


def main():
    parser = argparse.ArgumentParser(
        description="Run one simbench workload and print its metrics as a JSON line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10,
                        help="host seconds of measurement, 1..120 (default 10)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: per-layer ledger (default 0)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds 1..120")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference", os.path.join(HERE, "reference.txt")]
    try:
        return subprocess.run(command, timeout=args.seconds + GRACE_SECONDS).returncode
    except subprocess.TimeoutExpired:
        sys.exit("simbench: run timed out")


if __name__ == "__main__":
    sys.exit(main())
