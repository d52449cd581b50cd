#!/usr/bin/env python3
"""Steadiness self-check for the repo benchmark.

    python3 perfbench/steady.py [--workloads sweep,serve] [--runs 10]
                                [--first-seed 1] [--seconds S]

Runs run.py --trace 0 on each workload --runs times, each with its own
seed, and reports every end-to-end metric's median, quartiles and spread
(the distance between the quartiles as a share of the median, from
statistics.quantiles(values, n=4)). A metric whose spread exceeds its
bound in BENCHMARK.json is flagged FAIL; one above a third of its bound,
the target margin, is flagged WIDE. Run lengths and bounds in
BENCHMARK.json come from this measurement. Exits 1 on any FAIL or failed
run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, elapsed = run_once(workload, seed, args.seconds)
            walls.append(elapsed)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect: %s" % (
                    workload, seed, result))
                bad = True
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, %.1f s per run (max %.1f s)" % (
            workload, len(walls), statistics.mean(walls), max(walls)))
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ("FAIL" if spread > bound and name != "setup_s"
                    else "WIDE" if spread > bound / 3 else "ok")
            bad |= flag == "FAIL"
            print("  %-12s median %12.4f  q1 %12.4f  q3 %12.4f  n=%d  "
                  "spread %.4f  bound %.2f  %s" % (
                      name, med, q1, q3, len(v), spread, bound, flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
