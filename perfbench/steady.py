#!/usr/bin/env python3
"""Repeats benchmark workloads and reports how steady each metric is.

    python3 perfbench/steady.py --workload lookup_read --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 100

Each run goes through perfbench/run.py with its own seed (first-seed,
first-seed + 1, ...) with --trace 0. For every end-to-end metric the
tool prints the median, the first and third quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, the bound
from BENCHMARK.json and whether the spread stays under a third of it; for
each workload it prints the share of failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup_read", "ingest_mixed", "batch_join")


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("%s seed %d exited with %d"
                         % (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload, results, bounds):
    print("== %s: %d runs" % (workload, len(results)))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("   correct: %s; failed share: %s"
          % (all(r["correct"] for r in results),
             ", ".join("%.6f" % s for s in shares)))
    print("   %-36s %14s %14s %14s %8s %7s %s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "ok"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], 0, values[0]))
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds[name]
        verdict = "yes" if spread < bound / 3 else (
            "within" if spread <= bound else "NO")
        print("   %-36s %14.6g %14.6g %14.6g %8.4f %7.2f %s"
              % (name + " (" + unit + ")", median, q1, q3, spread, bound,
                 verdict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, seconds))
            print("   %s seed %d done" % (workload, seed), file=sys.stderr,
                  flush=True)
        summarize(workload, results, bounds)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
