#!/usr/bin/env python3
"""Builds and runs the TMan end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload range_tdrive --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from the repository's sources (Release build)
into $CARGO_TARGET_DIR, default .bench_build, under the repository root.
The last line of standard output is the run's JSON result; build output
goes to standard error. The exit code is non-zero when the build fails,
an operation fails or a result disagrees with the brute-force oracle.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    cmake_dir = os.path.join(build_root(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target", target],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    return os.path.join(cmake_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("tman_perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run([binary], check=False).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("tman_perfbench")
    if binary is None:
        return 1
    work_dir = os.path.join(build_root(), "runs",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(os.path.join(work_dir, "db"), ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
