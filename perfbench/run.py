#!/usr/bin/env python3
"""Wall-clock benchmark of the xmpi substrate and the KaMPIng bindings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small_coll --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Builds the library and the benchmark binary from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, runs one workload, checks the
result's shape against BENCHMARK.json and prints it as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones (span files land in <build dir>/traces). `--workload all` runs every
workload in turn and prints each one's metrics and result line. See
perfbench/README.md.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("small_coll", "bulk_coll", "apps", "sim_scale")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def check_result(result, declared):
    """The result line must carry exactly the declared metrics and units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
                         f"or units differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not a finite number")
    if result["attempted"] < 1:
        raise ValueError("no op attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-expectation", action="store_true",
                    help="compare every output against a wrong expectation (oracle self-test)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    if args.workload != "all":
        return run_workload(args, args.workload, binary, trace_dir, declared)
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        status |= run_workload(args, workload, binary, trace_dir, declared)
    return status


def run_workload(args, workload, binary, trace_dir, declared):
    """Runs one workload, validates its result and prints it last."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-dir", trace_dir]
    if args.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    # The library reads XMPI_* tuning variables; the benchmark measures its
    # defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XMPI_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
        check_result(result, declared)
    except (ValueError, KeyError, TypeError) as e:
        log(f"malformed result: {e}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
