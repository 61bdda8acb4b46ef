// Probe-throughput and end-to-end placement timing vs tree size, emitting
// machine-readable BENCH_placement.json so the perf trajectory of the
// transactional placement engine (docs/DESIGN.md §5) is tracked over time.
//
// Two probe modes run the identical (op, target) sequence:
//  - incremental: PlacementState::can_place on the live state (journal
//    apply -> validate touched -> rollback);
//  - copy baseline: deep-copy the state, apply to the copy, full-state
//    revalidation — the seed implementation's copy-and-revalidate
//    transaction, kept here as the yardstick the incremental engine is
//    measured against.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/placement_state.hpp"

using namespace insp;
using namespace insp::benchx;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ProbeSet {
  std::vector<std::pair<int, int>> moves;  // (op, target pid)
};

/// A fixed cyclic probe sequence: single-operator relocations onto random
/// live processors — the shape of every heuristic fill loop.
ProbeSet make_probe_set(const PlacementState& st, Rng& rng,
                        std::size_t count) {
  ProbeSet set;
  const std::vector<int> live = st.live_processors();
  const int num_ops = st.problem().tree->num_operators();
  for (std::size_t i = 0; i < count; ++i) {
    const int op =
        static_cast<int>(rng.index(static_cast<std::size_t>(num_ops)));
    const int pid = live[rng.index(live.size())];
    set.moves.emplace_back(op, pid);
  }
  return set;
}

/// Probes/sec of can_place on the live state (non-const: probes mutate and
/// bit-exactly restore the state).
double measure_incremental(PlacementState& st, const ProbeSet& set,
                           std::size_t iterations) {
  const auto t0 = Clock::now();
  std::size_t feasible = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto& [op, pid] = set.moves[i % set.moves.size()];
    feasible += st.can_place({op}, pid) ? 1 : 0;
  }
  const double elapsed = seconds_since(t0);
  if (feasible == set.moves.size() + 1) std::printf(" ");  // defeat DCE
  return static_cast<double>(iterations) / elapsed;
}

/// Probes/sec of the seed-equivalent transaction: deep-copy the state,
/// apply the move to the copy, and run the *full-state* feasible() scan —
/// the seed implementation's copy-and-revalidate cost shape (the journaling
/// the apply also does here is noise next to the copy and the full scan).
double measure_copy_baseline(const PlacementState& st, const ProbeSet& set,
                             std::size_t iterations) {
  const auto t0 = Clock::now();
  std::size_t feasible = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    const auto& [op, pid] = set.moves[i % set.moves.size()];
    PlacementState trial(st);
    trial.try_place({op}, pid);
    feasible += trial.feasible() ? 1 : 0;
  }
  const double elapsed = seconds_since(t0);
  if (feasible == set.moves.size() + 1) std::printf(" ");
  return static_cast<double>(iterations) / elapsed;
}

struct AllocateTiming {
  std::string name;
  double mean_ms = 0.0;
  int failures = 0;
};

struct SizeResult {
  int num_operators = 0;
  int live_processors = 0;
  double probes_per_sec_incremental = 0.0;
  double probes_per_sec_copy = 0.0;
  double speedup = 0.0;
  std::vector<AllocateTiming> allocate;
};

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<SizeResult>& results) {
  const std::uint64_t hardware = std::thread::hardware_concurrency();
  JsonArtifact a{"placement_speed", 1, seed};
  a.extra.add("hardware_concurrency", hardware);
  for (const SizeResult& r : results) {
    std::vector<JsonRow> allocate;
    for (const AllocateTiming& t : r.allocate) {
      allocate.push_back(JsonRow()
                             .add("heuristic", t.name)
                             .add("mean_ms", t.mean_ms, 3)
                             .add("failures", t.failures));
    }
    a.results.push_back(
        JsonRow()
            .add("num_operators", r.num_operators)
            .add("live_processors", r.live_processors)
            .add("probes_per_sec_incremental",
                 r.probes_per_sec_incremental, 1)
            .add("probes_per_sec_copy_baseline", r.probes_per_sec_copy, 1)
            .add("probe_speedup", r.speedup, 2)
            .add("hardware_concurrency", hardware)
            .add("allocate", allocate));
  }
  emit_json(a, path);
}

} // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv, {"json", "smoke"}, /*default_reps=*/5);
  const CliArgs& args = flags.args;
  const std::string json_path = args.get("json", "BENCH_placement.json");
  const bool smoke = args.get_bool("smoke", false);

  const std::vector<HeuristicKind> kinds =
      flags.heuristics.empty() ? all_heuristics() : flags.heuristics;

  std::printf("Placement probe throughput vs tree size\n"
              "=======================================\n\n");

  const std::vector<int> sizes = smoke ? std::vector<int>{25}
                                       : std::vector<int>{25, 50, 100, 200, 400};
  std::vector<SizeResult> results;
  for (int n : sizes) {
    // Paper-shaped trees at a throughput low enough that even N=400 stays
    // feasible — probe cost, not instance difficulty, is what is measured.
    InstanceConfig cfg = paper_instance(n, 1.0);
    cfg.tree.at_most_n = false;  // exact size: the x axis is honest
    cfg.rho = 0.05;
    const Instance inst = make_instance(flags.seed, cfg);
    const Problem prob = inst.problem();

    // A populated mid-heuristic state to probe against: operators scattered
    // round-robin over many processors, so probes carry real cross-traffic
    // (Comp-Greedy at this rho would pack one processor and trivialize the
    // copy baseline).
    PlacementState st(prob);
    const int num_procs = std::max(2, n / 8);
    for (int i = 0; i < num_procs; ++i) {
      st.buy(prob.catalog->most_expensive());
    }
    bool scattered = true;
    const std::vector<int> live_now = st.live_processors();
    for (int op = 0; op < prob.tree->num_operators() && scattered; ++op) {
      bool placed_op = false;
      for (int attempt = 0; attempt < num_procs; ++attempt) {
        const int pid =
            live_now[static_cast<std::size_t>((op + attempt) % num_procs)];
        if (st.try_place({op}, pid)) {
          placed_op = true;
          break;
        }
      }
      scattered = placed_op;
    }
    if (!scattered) {
      std::printf("N=%d: could not scatter operators; skipping\n", n);
      continue;
    }

    SizeResult r;
    r.num_operators = n;
    r.live_processors = st.num_live_processors();

    Rng probe_rng(flags.seed ^ 0xbe9cull);
    const ProbeSet set = make_probe_set(st, probe_rng, 1024);
    // Warm-up, then size the iteration counts so each side runs long
    // enough to time stably but the whole sweep stays interactive (and the
    // CI smoke run stays near-instant).
    measure_incremental(st, set, 1000);
    const std::size_t inc_iters = smoke ? 20'000 : 200'000;
    const std::size_t copy_iters = std::max<std::size_t>(
        smoke ? 500 : 2'000, inc_iters / static_cast<std::size_t>(n));
    r.probes_per_sec_incremental = measure_incremental(st, set, inc_iters);
    r.probes_per_sec_copy = measure_copy_baseline(st, set, copy_iters);
    r.speedup = r.probes_per_sec_incremental / r.probes_per_sec_copy;

    for (HeuristicKind k : kinds) {
      AllocateTiming t;
      t.name = heuristic_name(k);
      const auto t0 = Clock::now();
      for (int rep = 0; rep < flags.repetitions; ++rep) {
        Rng rng(flags.seed + static_cast<std::uint64_t>(rep));
        const AllocationOutcome out = allocate(prob, k, rng);
        t.failures += out.success ? 0 : 1;
      }
      t.mean_ms = seconds_since(t0) * 1000.0 /
                  std::max(1, flags.repetitions);
      r.allocate.push_back(t);
    }

    std::printf("N=%-4d procs=%-3d  incremental %10.0f probes/s   "
                "copy baseline %9.0f probes/s   speedup %6.1fx\n",
                n, r.live_processors, r.probes_per_sec_incremental,
                r.probes_per_sec_copy, r.speedup);
    for (const AllocateTiming& a : r.allocate) {
      std::printf("        allocate %-22s %8.3f ms/run (%d failures)\n",
                  a.name.c_str(), a.mean_ms, a.failures);
    }
    results.push_back(r);
  }

  write_json(json_path, flags.seed, results);
  return 0;
}
