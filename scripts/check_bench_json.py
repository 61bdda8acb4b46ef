#!/usr/bin/env python3
"""Shared schema check for the BENCH_*.json artifacts.

Every bench binary that emits machine-readable JSON (bench_placement_speed,
bench_dynamic, bench_sim_speed, ...) writes it through the one artifact
writer, write_json_artifact in bench/harness/reporting.hpp, so all of
them follow one envelope:

    {
      "bench": "<name>",          # non-empty string
      "schema_version": 1,        # positive integer
      "seed": 42,                 # integer (optional but conventional)
      "host": {"cores": 4, "isa": "avx2 ...", "compiler": "GNU 12.2.0",
               "build_type": "Release", "git_sha": "<sha>[-dirty]"},
      "results": [ { ... }, ... ] # non-empty list of flat objects
    }

The host stamp is required: a number means little without the machine,
compiler and revision it came from.  `cores` is a positive integer, the
other four are non-empty strings, and no other key is allowed.

Each result row must be an object of scalar values (numbers, strings,
booleans); one level of nesting is allowed for per-row breakdown tables
(a list of flat scalar objects, e.g. bench_placement's per-heuristic
timings).  The artifacts are meant to be trivially diffable and trackable
over time, so anything deeper is rejected.  CI runs this over every
artifact the smoke runs produce; it is also handy locally:

    python3 scripts/check_bench_json.py BENCH_*.json
"""
import json
import sys

# The host stamp every artifact carries (host_stamp in
# bench/harness/reporting.hpp).
HOST_KEYS = {"cores", "isa", "compiler", "build_type", "git_sha"}

# Per-bench row schemas: when a known bench name is seen, every result row
# must carry exactly these keys.  A missing key means a row silently lost
# its payload (a formatting bug in the emitter); an undeclared key is a
# stale or unreviewed metric that would otherwise linger unnoticed.  The key
# lists keep the benches' downstream consumers honest.  Benches not listed
# here are envelope-checked only.
ROW_KEYS = {
    "placement_speed": {
        "num_operators", "live_processors", "probes_per_sec_incremental",
        "probes_per_sec_copy_baseline", "probe_speedup",
        "hardware_concurrency", "allocate",
    },
    "dynamic": {
        "num_operators", "initial_apps", "events", "trace_arrivals",
        "median_repair_ms", "median_scratch_ms", "latency_speedup",
        "repair_final_cost", "scratch_final_cost", "cost_ratio",
        "repair_failures", "scratch_failures", "repair_fallbacks",
        "ops_moved", "procs_bought", "procs_retired", "reconfigures",
        "events_simulated", "events_sustained", "repair_signature",
        "gap_events_comparable", "gap_events_measured", "repair_gap_mean",
        "repair_gap_max", "scratch_gap_mean", "scratch_gap_max",
    },
    "sim": {
        "num_operators", "num_processors", "crossing_edges", "periods",
        "periods_simulated", "reps", "rho_star", "dense_ms_per_run",
        "sparse_ms_per_run", "speedup", "sustained", "identical_results",
    },
    "ilp": {
        "n", "alpha", "instances", "solved", "reference_solved",
        "nodes_incremental", "nodes_reference", "node_ratio", "costs_match",
        "best_heuristic_ratio",
    },
    "service": {
        "num_operators", "shards", "worker_threads", "events",
        "events_per_sec", "p50_ms", "p99_ms", "speedup_vs_1worker",
        "hardware_concurrency", "signatures_match", "events_applied",
        "events_coalesced", "failures",
    },
    "chaos": {
        "chaos_class", "num_operators", "initial_apps", "faults",
        "truth_down", "detected", "repaired", "recovered", "detection_rate",
        "mean_detection_beats", "max_detection_beats", "median_repair_ms",
        "mean_recovery_beats", "max_recovery_beats", "events_inferred",
        "events_simulated", "events_sustained", "final_cost", "signature",
    },
}

# bench_ablations emits heterogeneous rows keyed by a "section" field:
# "fold" rows carry the realized-vs-predicted sharing study, and
# "optimality_gap" rows carry the per-heuristic gap to the exact optimum.
# Rows whose section is unknown are rejected outright.
ABLATIONS_SECTION_KEYS = {
    "fold": {
        "section", "rep", "num_apps", "operators_forest", "operators_folded",
        "shared_nodes", "predicted_work_saved", "predicted_cost_bound",
        "realized_work_saved", "unfolded_cost", "folded_cost",
        "realized_cost_saving", "both_allocated", "unfolded_sustained",
        "folded_sustained",
    },
    "optimality_gap": {
        "section", "n", "alpha", "heuristic", "attempts", "measured",
        "gap_mean", "gap_max", "nodes_total",
    },
}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return 1


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"not readable valid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level must be an object")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        return fail(path, "'bench' must be a non-empty string")
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        return fail(path, "'schema_version' must be a positive integer")
    host = doc.get("host")
    if not isinstance(host, dict):
        return fail(path, "'host' must be an object (the host stamp)")
    if host.keys() != HOST_KEYS:
        return fail(path, f"'host' keys must be exactly "
                          f"{', '.join(sorted(HOST_KEYS))}")
    cores = host["cores"]
    if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
        return fail(path, "'host.cores' must be a positive integer")
    for key in sorted(HOST_KEYS - {"cores"}):
        if not isinstance(host[key], str) or not host[key]:
            return fail(path, f"'host.{key}' must be a non-empty string")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return fail(path, "'results' must be a non-empty list")
    def is_scalar(value):
        return isinstance(value, (int, float, str, bool))

    declared = ROW_KEYS.get(bench)
    for i, row in enumerate(results):
        if not isinstance(row, dict) or not row:
            return fail(path, f"results[{i}] must be a non-empty object")
        if bench == "ablations":
            section = row.get("section")
            if section not in ABLATIONS_SECTION_KEYS:
                return fail(
                    path,
                    f"results[{i}] has unknown ablations section "
                    f"{section!r} (expected one of "
                    f"{', '.join(sorted(ABLATIONS_SECTION_KEYS))})",
                )
            declared = ABLATIONS_SECTION_KEYS[section]
        if declared is not None:
            missing = declared - row.keys()
            if missing:
                return fail(
                    path,
                    f"results[{i}] is missing required '{bench}' keys: "
                    f"{', '.join(sorted(missing))}",
                )
            undeclared = row.keys() - declared
            if undeclared:
                return fail(
                    path,
                    f"results[{i}] has keys the '{bench}' schema does not "
                    f"declare: {', '.join(sorted(undeclared))}",
                )
        for key, value in row.items():
            if is_scalar(value):
                continue
            if isinstance(value, list) and all(
                isinstance(sub, dict)
                and sub
                and all(is_scalar(v) for v in sub.values())
                for sub in value
            ):
                continue  # one breakdown table per row is fine
            return fail(
                path,
                f"results[{i}].{key} must be a scalar or a list of flat "
                f"objects (got {type(value).__name__})",
            )

    print(f"{path}: ok (bench={bench}, schema_version={version}, "
          f"{len(results)} result rows)")
    return 0


def main(argv):
    if len(argv) < 2:
        print("usage: check_bench_json.py BENCH_a.json [BENCH_b.json ...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        status |= check_file(path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
