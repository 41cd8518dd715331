#!/usr/bin/env python3
"""Builds the engine and the benchmark program from source, then runs one
workload and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload point_anchored|scan_batch \\
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

The build goes to `.bench_build` (or `$CARGO_TARGET_DIR` when set) under
the repository root. Build output goes to stderr; stdout carries the run
record (lines starting with `#`) and, as its last line, the result JSON.
The exit code is non-zero when the build, the run or the result fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "aqua_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "aqua_perfbench")


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["point_anchored", "scan_batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
