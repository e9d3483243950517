#!/usr/bin/env python3
"""Builds the engine and the benchmark harness from source, then runs one
workload of the benchmark.

    python3 perfbench/run.py --workload analytic|serve|ingest \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build/ (CMake,
Release; only the engine libraries and the harness, no tests); the first
run builds, later runs only check that the build is current.  Build output
goes to .bench_build/build.log.  The harness prints its metrics and, as the
last line of stdout, one JSON result object; see perfbench/README.md.

Exits non-zero, printing no result, when the engine sources are missing or
the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mra_perfbench")
# A run measures for --seconds (at most 60) plus set-up and checks.
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the harness; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources not found at %s/src" % ROOT,
              file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "mra_perfbench",
                  "-j", jobs])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT)
            except OSError as err:
                print("perfbench: cannot run %s: %s" % (cmd[0], err),
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    tail = failed.read()[-4000:]
                print("perfbench: build failed (%s):\n%s" % (log_path, tail),
                      file=sys.stderr)
                return False
    return True


def main(argv):
    if not build():
        return 2
    cmd = [BINARY] + argv + ["--out-dir", os.path.join(BUILD, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
