#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs one workload several times, with seeds 1, 2, ..., and prints every
end-to-end metric's median, quartiles, interquartile spread and max/min
spread. Spreads are shares of the median; quartiles come from
statistics.quantiles(values, n=4). Run from the repository root:

    python3 perfbench/steady.py --workload cache-batch --runs 5 --seconds 5

A metric is flagged when its interquartile spread is above a tenth, or above
a third of its bound in BENCHMARK.json. Exits 1 if a run fails or a metric
is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# FLAG is the spread above which a metric is not steady.
FLAG = 0.1
# A gated metric's spread must also stay below a third of its bound, so that
# two sets of runs of the same code stay within the bound of each other.
# setup_s is exempt from this: only its median is compared between sets, and
# each run already reports the median of several set-ups.
BOUND_SHARE = 1 / 3


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"run with seed {seed} failed ({out.returncode})")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run with seed {seed} reported incorrect output")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed phase per run (default: run_seconds from BENCHMARK.json)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values = {}
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, seconds)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: {line}", flush=True)

    flagged = False
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>10}{'range/med':>11}{'bound/3':>9}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        iqr = (q3 - q1) / med if med else float("inf")
        rng = (max(vs) - min(vs)) / med if med else float("inf")
        third = bounds[name] * BOUND_SHARE
        mark = ""
        if iqr > FLAG or (name != "setup_s" and iqr > third):
            mark, flagged = "  FLAG", True
        print(f"{name:<18}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{iqr:>10.4f}{rng:>11.4f}{third:>9.4f}{mark}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
