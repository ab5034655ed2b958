#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact_fe --seed 1 --seconds 10 --trace 0

Every call configures and builds perfbench/ (which compiles the
simulator from ../src) into .bench_build/perfbench; after the first
call that only re-checks the build. Generated EMTC inputs are kept in
.bench_build/inputs. The last line of stdout is the run's JSON result;
build logs and progress go to stderr. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("exact_fe", "exact_be", "fused_trace")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Run cmd with its output on stderr; True when it succeeds."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return False


def build(root, build_dir):
    """Configure (cheap when nothing changed), then build perfbench."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return (run_logged(["cmake", "-S", str(root / "perfbench"),
                        "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
            and run_logged(["cmake", "--build", str(build_dir),
                            "--target", "perfbench", "-j", jobs],
                           BUILD_TIMEOUT_S))


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict)
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    work = root / ".bench_build"
    build_dir = work / "perfbench"
    if not build(root, build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--inputs", str(work / "inputs")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        print(f"run.py: perfbench exited {proc.returncode} without a "
              "valid result", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
