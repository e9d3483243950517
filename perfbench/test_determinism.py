#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/test_determinism.py [--seed N] [--seconds S]

Run from the repository root.  Checks that
  * the same seed gives identical data, op sequences and oracle answers, and
    another seed different data (mra_perfbench --selftest);
  * two traced runs of each workload with the same seed report identical
    exact counts (write_amp, storage.wal_bytes_per_commit,
    exec.hash_build_rows, exec.rows_examined_per_row and the other counts
    listed in EXACT below);
  * every run's result line carries exactly the metric names BENCHMARK.json
    lists.
Exits non-zero on the first mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

WORKLOADS = ["analytic", "serve", "ingest"]
# Counts that depend only on the seed, never on timing.
EXACT = [
    "write_amp",
    "storage.wal_bytes_per_commit",
    "storage.delta_bytes_per_commit",
    "exec.hash_build_rows",
    "exec.hash_probe_rows",
    "exec.rows_examined_per_row",
    "opt.qerror_max",
]


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("%s seed %d: exit %d" %
                         (workload, seed, done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("%s seed %d: %s" % (workload, seed, result))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=4)
    args = parser.parse_args()
    if not run.build():
        return 2

    selftest = subprocess.run([run.BINARY, "--selftest", "--seed",
                               str(args.seed)], cwd=ROOT)
    if selftest.returncode != 0:
        print("FAIL: data or op sequence is not a function of the seed")
        return 1

    contract_path = os.path.join(ROOT, "BENCHMARK.json")
    per_layer = None
    if os.path.isfile(contract_path):
        with open(contract_path) as f:
            per_layer = [m["name"] for m in json.load(f)["per_layer"]]

    failures = 0
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        if per_layer is not None and list(first["metrics"]) != per_layer:
            print("FAIL %s: metric names differ from BENCHMARK.json" %
                  workload)
            failures += 1
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            failures += 0 if same else 1
            print("%s %-9s %-32s %r %s %r" %
                  ("ok  " if same else "FAIL", workload, name, a,
                   "==" if same else "!=", b))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
