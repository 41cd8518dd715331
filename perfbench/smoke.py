#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload named in BENCHMARK.json at a tiny size, untraced and
traced, and asserts that each run exits 0, reports zero failed requests,
and prints exactly the end-to-end (untraced) or per-layer (traced) metrics
BENCHMARK.json names, each with its declared unit.

Usage (from the repository root): python3 perfbench/smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    if proc.returncode != 0:
        return ["exit code %d" % proc.returncode] + proc.stderr.splitlines()[-5:]
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append("correct=%s failed=%d" %
                      (result["correct"], result["failed"]))
    if result["attempted"] < 1:
        errors.append("no requests attempted")
    got = result["metrics"]
    for name in sorted(set(expected) - set(got)):
        errors.append("missing metric " + name)
    for name in sorted(set(got) - set(expected)):
        errors.append("unexpected metric " + name)
    for name in sorted(set(expected) & set(got)):
        if got[name].get("unit") != expected[name]:
            errors.append("%s: unit %r, expected %r" %
                          (name, got[name].get("unit"), expected[name]))
        if not isinstance(got[name].get("value"), (int, float)):
            errors.append("%s: value is not a number" % name)
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors = check_run(workload, trace, expected[trace])
            status = "ok" if not errors else "FAIL"
            print("%-8s trace=%d %s" % (workload, trace, status))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
