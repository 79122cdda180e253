#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 35 --trace 0

Builds the hybridspec libraries and the benchmark driver from the source
tree this file sits in (Release, under .bench_build/perfbench), runs the
benchmark's self-test, then runs one workload. The driver's output is
passed through; its last line is the JSON result. Build logs go to
standard error. Exits non-zero, printing no result, when the sources are
missing, the build or the self-test fails, or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("grid_sweep", "point_latency", "service_mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def step(cmd, timeout=None):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("{}: {}".format(" ".join(cmd), e))
    if proc.returncode != 0:
        fail("{} exited with {}".format(" ".join(cmd), proc.returncode))


def configured_for_this_tree():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip() == HERE
    except OSError:
        pass
    return False


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("hybridspec sources not found next to " + HERE)
    if not configured_for_this_tree():
        shutil.rmtree(BUILD, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", BUILD, "--parallel", "4",
          "--target", "perfbench", "perfbench_selftest"])
    step([os.path.join(BUILD, "perfbench_selftest")], timeout=60)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded {} s".format(RUN_TIMEOUT_S))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
