#!/usr/bin/env python3
"""Builds and runs the closed-loop serving benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload cold_start --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30      # every workload
    python3 perfbench/run.py --self-test                       # tiny-scale test

The first call configures and builds the library plus the benchmark into
.bench_build/perfbench (CMake, Release); later calls rebuild incrementally.
A single-workload run's last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("cold_start", "noisy_long", "fleet_churn")
RUN_TIMEOUT_S = 175


def build(targets):
    """Configures (once) and builds `targets`; False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "2", "--target"] +
                 list(targets))
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs `cmd` with a private work directory, removed afterwards."""
    work = os.path.join(".bench_build", "perfbench-work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        return subprocess.run(cmd + ["--work-dir", work],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload, end-to-end then traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--clients", type=int, default=2)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not (args.self_test or args.all or args.workload):
        p.error("one of --workload, --all or --self-test is required")

    if args.self_test:
        if not build(["perfbench_test"]):
            return 1
        return run([os.path.join(BUILD_DIR, "perfbench_test")])

    if not build(["perfbench"]):
        return 1
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--clients", str(args.clients), "--workers", str(args.workers)]
    binary = os.path.join(BUILD_DIR, "perfbench")
    if args.workload:
        return run([binary, "--workload", args.workload,
                    "--trace", str(args.trace)] + common)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            status |= run([binary, "--workload", workload,
                           "--trace", str(trace)] + common)
    return status


if __name__ == "__main__":
    sys.exit(main())
