#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/BENCH.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-cold|demo-sql \
        --seed N --seconds S --trace 0|1

Builds the harness and the library from source into .bench_build/ (an
incremental no-op once built), runs the workload, and prints its report.
The last line of standard output is the JSON result: "correct", "attempted",
"failed" and "metrics" (the end-to-end metrics untraced, the per-layer
metrics traced). A traced run also writes a Chrome trace-event file under
.bench_out/ and checks it with tools/validate_trace.py. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
WORKLOADS = ("scan-cold", "demo-sql")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to perfbench/")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 2),
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        return 2
    out_dir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        log(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        log(f"run.py: {args.workload} exited with {proc.returncode} and no result")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))

    if args.trace == "1":
        trace = os.path.join(out_dir, f"{args.workload}.trace.json")
        check = subprocess.run(
            [sys.executable, os.path.join(HERE, "..", "tools", "validate_trace.py"),
             trace], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        print(f"trace file {trace}: {check.stdout.strip()}")
        if check.returncode != 0:
            result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
