#!/usr/bin/env python3
"""Steadiness check: runs one workload k times, each with another seed, and
prints for every end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound from
BENCHMARK.json.

    python3 perfbench/steady.py --workload route --runs 10 [--first-seed 1]

Run it from the root of a checkout. A spread within a third of the bound
is marked "ok", a wider one within the bound "wide", and one beyond the
bound "OVER". The command exits non-zero unless every spread is "ok" and
the share of failed operations is the same in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        shares.add((result["failed"], result["attempted"]) if result["failed"]
                   else 0)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)

    print("\n%-16s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    steady = True
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds[name]["bound"]
        verdict = ("ok" if spread <= bound / 3 else
                   "wide" if spread <= bound else "OVER")
        steady = steady and verdict == "ok"
        print("%-16s %12.5g %12.5g %12.5g %8.4f %6.3f %s" % (
            name, q2, q1, q3, spread, bound, verdict))
    fixed_share = len({s if s == 0 else s[0] / s[1] for s in shares}) == 1
    print("failed-operation share the same in every run: %s" % fixed_share)
    return 0 if steady and fixed_share else 1


if __name__ == "__main__":
    sys.exit(main())
