#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly, one seed per run, and
prints for every metric its median, quartiles and relative spread
(interquartile distance over the median, from statistics.quantiles(n=4)).

    python3 perfbench/steadiness.py [--workloads analytic,serve,ingest]
        [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1]
        [--json OUT]

Run from the repository root.  --seconds defaults to run_seconds of
BENCHMARK.json.  With --trace 0 each end-to-end metric is compared with its
bound from BENCHMARK.json: a spread above a third of the bound is flagged
"noisy", above the bound "OVER" (setup_s is exempt from the spread check;
its medians across sets are compared instead).  Exits non-zero when a run
fails or reports a wrong output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def spread(values):
    if len(values) < 2:
        return values[0] if values else 0, 0, 0, 0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in contract.get("workloads", [])) or
        "analytic,serve,ingest")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=contract.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--json", help="also write all values here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in contract.get("end_to_end", [])}
    all_values = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result = run_once(workload, seed, args.seconds, args.trace)
            if code != 0 or result is None or not result["correct"] or \
                    result["failed"] > 0:
                print("%s seed %d: exit %d, result %s" %
                      (workload, seed, code, result), file=sys.stderr)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        all_values[workload] = values
        print("== %s: %d runs, %ss each, trace=%d" %
              (workload, args.runs, args.seconds, args.trace))
        print("%-32s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "OVER" if rel > bound else (
                    "noisy" if rel > bound / 3 else "")
            print("%-32s %14.6g %14.6g %14.6g %8.4f %8s %s" %
                  (name, med, q1, q3, rel,
                   "" if bound is None else "%.3f" % bound, flag))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
