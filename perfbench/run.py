#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build) in Release mode; build output goes to stderr, so the
last line of stdout is the driver's JSON result. Any other arguments are
passed through to the driver (see perfbench/main.cpp). Exits non-zero,
without a result line, if the build or any output check fails.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "perfbench"), "--workdir",
           os.path.join(build_dir, "perfbench-work")] + sys.argv[1:]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
