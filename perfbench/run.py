#!/usr/bin/env python3
"""Builds and runs the layered caya benchmark.

    python3 perfbench/run.py --workload rates_table2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The first run configures and builds the
benchmark (and the caya libraries it links) under .bench_build/; later runs
only rebuild what changed. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. --trace 1 also writes the run's spans
to .bench_build/perfbench-spans/. See perfbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "perfbench-spans"
WORKLOADS = ("rates_table2", "sweep_impaired", "evolve_china_http", "serve_drift")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no caya sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def self_test():
    build(["perfbench", "perfbench_tests"])
    if subprocess.run([str(BUILD_DIR / "perfbench_tests")]).returncode != 0:
        return 1
    suite = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                            str(BENCH_DIR / "tests"), "-p", "test_*.py"])
    return suite.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench"])
    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed % 2**64), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(SPANS_DIR / f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
