#!/usr/bin/env python3
"""Self-test of the benchmark's output oracle.

With --corrupt-expectation every check compares an output against a wrong
expected value, so a working oracle must report failures on every workload:
`failed` > 0, `correct` false and the per-layer error_rate > 0. Run from the
root of a checkout:

    python3 perfbench/test_oracle.py
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("small_coll", "bulk_coll", "apps", "sim_scale")


def run(workload, corrupt):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    if corrupt:
        cmd.append("--corrupt-expectation")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    failures = []
    for workload in WORKLOADS:
        clean = run(workload, corrupt=False)
        bad = run(workload, corrupt=True)
        error_rate = bad["metrics"]["error_rate"]["value"]
        print(f"{workload}: clean failed={clean['failed']}, corrupted failed={bad['failed']} "
              f"of {bad['attempted']}, error_rate={error_rate:.3f}")
        if clean["failed"] != 0 or not clean["correct"]:
            failures.append(f"{workload}: failures without corruption")
        if bad["failed"] == 0 or bad["correct"] or not error_rate > 0:
            failures.append(f"{workload}: a corrupted expectation went unnoticed")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
