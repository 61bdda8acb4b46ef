// Online re-allocation study (docs/DESIGN.md §8): replays seeded dynamic
// workload traces (per-app rho drift, object-rate changes, server
// failure/recovery, application arrival/departure) against a live
// allocation twice —
//   repair  : the incremental repair engine (arrival placement, in-place
//             re-purchase and consolidation over the undo-journal API,
//             scratch fallback only when targeted repair fails);
//   scratch : every event handled by a full from-scratch re-allocation (the
//             static paper pipeline's only option);
// and reports per-event repair latency, disruption (operators moved,
// processors bought/retired/re-priced) and final platform cost for both,
// emitting machine-readable BENCH_dynamic.json.  Every repaired allocation
// is cross-checked with the discrete-event simulator (sustained == true).
//
// Rows small enough for the exact anchor (N <= --gap-nmax, which covers the
// dedicated small gap row in both sweeps) additionally replay the trace
// through the repair-vs-scratch gap study (docs/DESIGN.md §14): after every
// event both engines survive, the folded problem is solved exactly and the
// per-event repair/scratch costs are reported as ratios to the PROVED
// optimum.  Larger rows keep the gap columns with zero measured events.
//
// --smoke shrinks the sweep to one small row for CI; --dump-trace /
// --trace round-trip the bundled trace through the text format.  The exit
// code is 1 when any row has a repair failure or an event the simulator did
// not confirm as sustained: the rows are seeded, so either is a defect.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bench_support/dynamic_world.hpp"
#include "dynamic/scenario_engine.hpp"
#include "harness/gap_study.hpp"

using namespace insp;
using namespace insp::benchx;

namespace {

using Scale = DynamicWorldScale;

struct ScaleResult {
  Scale scale;
  int trace_arrivals = 0;
  // repair run
  double median_repair_ms = 0.0;
  int repair_fallbacks = 0;
  int repair_failures = 0;
  int ops_moved = 0;
  int procs_bought = 0;
  int procs_retired = 0;
  int reconfigures = 0;
  int simulated = 0;
  int sustained = 0;
  Dollars repair_final_cost = 0.0;
  std::uint64_t repair_signature = 0;
  // scratch baseline
  double median_scratch_ms = 0.0;
  int scratch_failures = 0;
  Dollars scratch_final_cost = 0.0;
  // comparisons
  double latency_speedup = 0.0;
  double cost_ratio = 0.0;  ///< repair final cost / scratch final cost
  // optimality-gap anchor (only rows with N <= --gap-nmax are measured)
  int gap_events_comparable = 0;  ///< events where both engines succeeded
  int gap_events_measured = 0;    ///< ... and the exact anchor proved Optimal
  double repair_gap_mean = 0.0;   ///< repair cost / optimum over measured
  double repair_gap_max = 0.0;
  double scratch_gap_mean = 0.0;  ///< scratch cost / optimum over measured
  double scratch_gap_max = 0.0;
};

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<ScaleResult>& results) {
  JsonArtifact a{"dynamic", 1, seed};
  for (const ScaleResult& r : results) {
    a.results.push_back(
        JsonRow()
            .add("num_operators", r.scale.n)
            .add("initial_apps", r.scale.apps)
            .add("events", r.scale.events)
            .add("trace_arrivals", r.trace_arrivals)
            .add("median_repair_ms", r.median_repair_ms, 4)
            .add("median_scratch_ms", r.median_scratch_ms, 4)
            .add("latency_speedup", r.latency_speedup, 2)
            .add("repair_final_cost", r.repair_final_cost, 2)
            .add("scratch_final_cost", r.scratch_final_cost, 2)
            .add("cost_ratio", r.cost_ratio, 4)
            .add("repair_fallbacks", r.repair_fallbacks)
            .add("repair_failures", r.repair_failures)
            .add("scratch_failures", r.scratch_failures)
            .add("ops_moved", r.ops_moved)
            .add("procs_bought", r.procs_bought)
            .add("procs_retired", r.procs_retired)
            .add("reconfigures", r.reconfigures)
            .add("events_simulated", r.simulated)
            .add("events_sustained", r.sustained)
            .add("gap_events_comparable", r.gap_events_comparable)
            .add("gap_events_measured", r.gap_events_measured)
            .add("repair_gap_mean", r.repair_gap_mean, 4)
            .add("repair_gap_max", r.repair_gap_max, 4)
            .add("scratch_gap_mean", r.scratch_gap_mean, 4)
            .add("scratch_gap_max", r.scratch_gap_max, 4)
            .add("repair_signature", hex16(r.repair_signature)));
  }
  emit_json(a, path);
}

} // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv,
                  {"json", "smoke", "dump-trace", "trace", "simulate",
                   "gap-nmax", "gap-budget"},
                  /*default_reps=*/1, /*accepts_heuristics=*/false);
  const CliArgs& args = flags.args;
  const std::string json_path = args.get("json", "BENCH_dynamic.json");
  const bool smoke = args.get_bool("smoke", false);
  const std::string dump_trace_path = args.get("dump-trace", "");
  const std::string load_trace_path = args.get("trace", "");
  const bool simulate = args.get_bool("simulate", true);
  const int gap_nmax = static_cast<int>(args.get_int("gap-nmax", 24));
  const std::uint64_t gap_budget = args.get_u64("gap-budget", 500'000);

  // The first row is the gap anchor: small enough that the exact solver can
  // prove the per-event optimum, which turns the repair-vs-scratch cost
  // comparison into a measured optimality gap.
  std::vector<Scale> scales;
  if (smoke) {
    scales.push_back({16, 2, 24});
    scales.push_back({40, 2, 24});
  } else {
    scales.push_back({16, 2, 60});
    scales.push_back({100, 2, 200});
    scales.push_back({200, 4, 200});
    scales.push_back({400, 6, 200});
  }

  std::printf("Online re-allocation: repair vs scratch\n"
              "=======================================\n\n");

  bool gate_ok = true;
  std::vector<ScaleResult> results;
  for (const Scale& scale : scales) {
    DynamicWorld world = make_dynamic_world(flags.seed, scale);
    // --dump-trace writes one file per row (bare path when the sweep has a
    // single row, path.nNN otherwise); --trace mirrors that convention so a
    // dump/load round-trip reproduces every row: a bare file is replayed
    // against all rows (legacy single-row pairing), otherwise each row loads
    // its own .nNN file.  A row's trace must come from that row's world —
    // arrival trees embed the generation-time object catalog.
    if (!load_trace_path.empty()) {
      const std::string per_row =
          load_trace_path + ".n" + std::to_string(scale.n);
      world.trace = load_trace(
          std::ifstream(load_trace_path) ? load_trace_path : per_row);
    }
    if (!dump_trace_path.empty()) {
      const std::string path =
          scales.size() == 1
              ? dump_trace_path
              : dump_trace_path + ".n" + std::to_string(scale.n);
      save_trace(world.trace, path);
    }

    ScenarioOptions repair_opts;
    repair_opts.seed = flags.seed;
    repair_opts.simulate = simulate;
    repair_opts.num_threads = flags.threads;
    const ScenarioResult repair = replay_trace(
        world.apps, world.platform, world.catalog, world.trace, repair_opts);

    ScenarioOptions scratch_opts = repair_opts;
    scratch_opts.simulate = false;
    scratch_opts.repair.always_fallback = true;
    const ScenarioResult scratch = replay_trace(
        world.apps, world.platform, world.catalog, world.trace, scratch_opts);

    ScaleResult r;
    r.scale = scale;
    r.trace_arrivals = static_cast<int>(world.trace.arrival_trees.size());
    r.median_repair_ms = repair.summary.median_repair_seconds * 1e3;
    r.median_scratch_ms = scratch.summary.median_repair_seconds * 1e3;
    r.latency_speedup = r.median_repair_ms > 0.0
                            ? r.median_scratch_ms / r.median_repair_ms
                            : 0.0;
    r.repair_fallbacks = repair.summary.fallbacks;
    r.repair_failures = repair.summary.failures;
    r.scratch_failures = scratch.summary.failures;
    r.ops_moved = repair.summary.ops_moved;
    r.procs_bought = repair.summary.procs_bought;
    r.procs_retired = repair.summary.procs_retired;
    r.reconfigures = repair.summary.reconfigures;
    r.simulated = repair.summary.simulated;
    r.sustained = repair.summary.sustained;
    r.repair_final_cost = repair.summary.final_cost;
    r.scratch_final_cost = scratch.summary.final_cost;
    r.cost_ratio = r.scratch_final_cost > 0.0
                       ? r.repair_final_cost / r.scratch_final_cost
                       : 0.0;
    r.repair_signature = repair.signature;

    if (scale.n <= gap_nmax) {
      const GapStudyResult gaps = run_gap_study(world, flags.seed, gap_budget);
      r.gap_events_comparable = gaps.events_comparable;
      r.gap_events_measured = gaps.events_measured;
      r.repair_gap_mean = gaps.repair_gap_mean;
      r.repair_gap_max = gaps.repair_gap_max;
      r.scratch_gap_mean = gaps.scratch_gap_mean;
      r.scratch_gap_max = gaps.scratch_gap_max;
    }
    results.push_back(r);

    std::printf(
        "N=%-4d apps=%d events=%-4d  repair %8.3f ms/event   scratch %8.3f "
        "ms/event   speedup %6.1fx\n",
        scale.n, scale.apps, scale.events, r.median_repair_ms,
        r.median_scratch_ms, r.latency_speedup);
    std::printf(
        "      cost $%.0f vs scratch $%.0f (ratio %.3f)   fallbacks %d   "
        "failures %d/%d\n",
        r.repair_final_cost, r.scratch_final_cost, r.cost_ratio,
        r.repair_fallbacks, r.repair_failures, r.scratch_failures);
    std::printf(
        "      disruption: %d ops moved, %d bought, %d retired, %d "
        "re-priced   sim sustained %d/%d\n",
        r.ops_moved, r.procs_bought, r.procs_retired, r.reconfigures,
        r.sustained, r.simulated);
    if (r.gap_events_measured > 0) {
      std::printf(
          "      optimality gap (over %d/%d proved events): repair mean "
          "%.3fx max %.3fx   scratch mean %.3fx max %.3fx\n",
          r.gap_events_measured, r.gap_events_comparable, r.repair_gap_mean,
          r.repair_gap_max, r.scratch_gap_mean, r.scratch_gap_max);
    }
    if (r.repair_failures > 0 || r.sustained < r.simulated) {
      gate_ok = false;
      std::printf("      GATE MISS: %d repair failures, sustained %d/%d\n",
                  r.repair_failures, r.sustained, r.simulated);
    }
    std::printf("\n");
  }

  write_json(json_path, flags.seed, results);
  if (!gate_ok) {
    std::fprintf(stderr, "dynamic gate failed: some row has repair failures "
                         "or unsustained events\n");
    return 1;
  }
  return 0;
}
