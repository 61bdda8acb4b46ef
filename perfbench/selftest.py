#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Builds the benchmark, then for every workload runs it untraced and traced at
`--size smoke` and checks that:
  - the run exits 0 and its last line is a JSON result with `correct: true`;
  - the metrics are exactly the ones BENCHMARK.json names for that mode
    (end_to_end untraced, per_layer traced), each with its declared unit;
  - (inside the binary, reported through `correct`) the traced replay's
    signature equals replay_trace's, every shard's final snapshot equals
    replay_shard_sequential's, and the composed plan pipeline equals
    allocate() on every call.
It also checks that unknown flags are rejected.  Exits non-zero on the
first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build entry point)


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def check_run(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.strip().splitlines()
    tag = "%s --trace %d" % (workload, trace)
    if res.returncode != 0 or not lines:
        sys.stdout.write(res.stdout)
        fail("%s exited %d" % (tag, res.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (tag, sorted(result)))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s" % (tag, result["correct"],
                                               result["attempted"]))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        fail("%s: missing %s, extra %s, wrong unit %s" % (tag, missing, extra,
                                                         wrong))
    print("selftest: %-22s ok (%d metrics, %d attempted)" % (
        tag, len(got), result["attempted"]))


def check_rejects(cmd, what):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    if res.returncode == 0 or res.stdout.strip():
        fail("%s was accepted" % what)
    print("selftest: rejects %s" % what)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    binary = run.build()
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(binary, w["name"], trace, units[trace])
    base = ["--workload", "plan", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--size", "smoke"]
    check_rejects([binary] + base + ["--bogus", "1"], "an unknown flag")
    check_rejects([sys.executable, os.path.join(HERE, "run.py")] + base +
                  ["--bogus", "1"], "an unknown flag in run.py")
    check_rejects([binary, "--workload", "nope", "--seed", "1", "--seconds",
                   "1", "--trace", "0"], "an unknown workload")
    print("selftest: ok")


if __name__ == "__main__":
    main()
