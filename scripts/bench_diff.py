#!/usr/bin/env python3
"""Exact diff of two BENCH_*.json artifacts from one bench.

    python3 scripts/bench_diff.py OLD.json NEW.json

Every key of the two artifacts must be present on both sides with an equal
value, at every nesting level (envelope, each result row, each per-row
breakdown table), except the wall-clock keys: names ending in `_ms`, `_s`
or `speedup`, whose values depend on the host and the moment.  A
wall-clock key must still be present on both sides.  Lists must have equal
lengths.  Prints one line per difference and exits 1 when there is any,
0 otherwise; an unreadable file exits 2.

Uses: proving a regenerated artifact equals the committed one after a
refactor, and proving a bench's output does not depend on its thread count
(the CI docs job diffs `bench_dynamic --smoke --threads 1` against
`--threads 8`).
"""
import json
import sys

WALL_CLOCK_SUFFIXES = ("_ms", "_s", "speedup")


def is_wall_clock(key):
    return key.endswith(WALL_CLOCK_SUFFIXES)


def diff(old, new, path, out):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old:
            if key not in new:
                out.append(f"{path}.{key}: missing in NEW")
        for key in new:
            if key not in old:
                out.append(f"{path}.{key}: missing in OLD")
        for key in old:
            if key in new and not is_wall_clock(key):
                diff(old[key], new[key], f"{path}.{key}", out)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            out.append(f"{path}: {len(old)} entries -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            diff(a, b, f"{path}[{i}]", out)
    elif type(old) is not type(new) or old != new:
        out.append(f"{path}: {old!r} -> {new!r}")


def main(argv):
    if len(argv) != 3:
        print("usage: bench_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            old = json.load(f)
        with open(argv[2]) as f:
            new = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    out = []
    diff(old, new, "$", out)
    for line in out:
        print(line)
    if out:
        print(f"{len(out)} difference(s)")
        return 1
    print("identical apart from wall-clock keys")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
