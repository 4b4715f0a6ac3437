#!/usr/bin/env python3
"""Builds and runs the spchol request-path benchmark.

Run from the repository root:

    python3 reqbench/run.py --workload warm_kkt --seed 1 --seconds 20 --trace 0

The first run configures and builds reqbench/ (the library from source plus
bench_request) into $CARGO_TARGET_DIR, default .bench_build; later runs
rebuild only what changed. Build output goes to stderr. The benchmark's
report goes to stdout, and its last line is the JSON result. The result is
checked against BENCHMARK.json: every metric it names for the mode
(end_to_end for --trace 0, per_layer for --trace 1) must be present.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no spchol source tree at {ROOT}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bench_request", "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return build_dir / "bench_request"


def expected_metrics(trace):
    return {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    missing = expected_metrics(trace) - set(result["metrics"])
    if missing:
        fail(f"metrics missing from the result: {sorted(missing)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        exe = build(build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(build_dir.resolve() / f"inputs-{args.workload}")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"bench_request exited with code {proc.returncode}")
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError) as e:
        sys.stderr.write(proc.stdout)
        fail(f"bad result line: {e}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
