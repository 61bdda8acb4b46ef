#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload replay|service|plan --seed N \
        --seconds S --trace 0|1 [--size full|smoke] [--trace-out PATH]

The binary is built with CMake into $CARGO_TARGET_DIR (default
`.bench_build`) under the checkout; the build log goes to stderr so the last
line of stdout is the run's JSON result.  Exits 0 only if the build succeeds
and every correctness check of the run passes.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay", "service", "plan")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def git_sha():
    """HEAD of the checkout; "unknown" outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_quiet(cmd):
    """Runs a build step; on failure replays its output to stderr."""
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no repository sources next to perfbench/ "
                 "(expected CMakeLists.txt and src/ in " + ROOT + ")")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    return os.path.join(out, "perfbench")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "smoke"))
    p.add_argument("--trace-out", default=None,
                   help="span dump of a traced run (default: in the build "
                        "directory)")
    args = p.parse_args(argv)  # unknown flags: usage error, exit 2
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def main(argv):
    args = parse_args(argv)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        trace_out = args.trace_out or os.path.join(
            build_dir(), "trace_%s_%d.jsonl" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
