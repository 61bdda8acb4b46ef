#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload replay [--seeds 1,2,3,4,5]
        [--seconds 10] [--trace 0]

For every metric: the median over the runs and the interquartile range as a
share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound in BENCHMARK.json.  A run that fails or reports
`correct: false` stops the script with a non-zero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stdout.write(res.stdout)
        sys.exit("seed %d: exit %d" % (seed, res.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stdout.write(res.stdout)
        sys.exit("seed %d: correct is false" % seed)
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in [int(s) for s in args.seeds.split(",")]:
        result = run(args.workload, seed, seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
            if k in bounds or args.trace)), flush=True)

    print("%-36s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OVER" if spread > bound else (
                "  >1/3" if spread > bound / 3 else "")
        print("%-36s %14.6g %8.4f %6s%s" % (
            name, med, spread, "" if bound is None else bound, flag))
    print("worst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
