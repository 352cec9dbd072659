#!/usr/bin/env python3
"""Build and run the end-to-end verification benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the verifier library from src/ plus the
driver, Release) under .bench_build/perfbench, then replaces itself with
the driver, which prints one JSON result as the last line of stdout.
Build output goes to stderr. Without the verifier sources next to
perfbench/ the build fails and the script exits non-zero with no result.
See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "wsv_perfbench")


def build():
    """Configures once, then builds incrementally; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    sys.stderr.flush()
    args = [BINARY] + sys.argv[1:] + ["--root", ROOT, "--work-dir", WORK]
    os.execv(BINARY, args)


if __name__ == "__main__":
    sys.exit(main())
