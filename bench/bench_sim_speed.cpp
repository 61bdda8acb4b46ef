// Simulator throughput study: the sparse pre-indexed event-simulator core
// vs the seed-era dense reference (full n_procs x n_procs link matrix
// rebuilt every period, full-vector snapshots, deque token churn), across
// growing instance sizes.  The simulator sits on the scenario engine's hot
// path — one run per trace event per thread slot — so this is the perf
// trajectory that decides how many scenarios a replay sweep can afford.
//
// Instances are built for *simulator* stress, not allocation quality: one
// operator per processor makes every tree edge a crossing edge (the worst
// case for the dense link matrix), and a single-model catalog is sized from
// the measured loads so the plan is valid (rho* >= 1) and the steady-state
// pipeline path is what gets timed.
// Each row cross-checks that both cores return bit-identical results —
// the same contract tests/sim/sim_differential_test.cpp enforces (the bench
// exits 1 otherwise) — and records how many of the window's periods the
// sparse core actually simulated before its steady-state fast-forward
// (periods_simulated; the dense reference always runs them all).
//
// Emits machine-readable BENCH_sim.json (schema checked in CI by
// scripts/check_bench_json.py).  --smoke shrinks the sweep for CI.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "oracles/event_sim_dense.hpp"
#include "sim/event_sim.hpp"
#include "sim/flow_analyzer.hpp"
#include "tree/tree_generator.hpp"

using namespace insp;
using namespace insp::benchx;

namespace {

using Clock = std::chrono::steady_clock;

struct SimWorld {
  OperatorTree tree;
  Platform platform;
  PriceCatalog catalog;
  Allocation alloc;
  int crossing_edges = 0;

  Problem problem() const {
    Problem p;
    p.tree = &tree;
    p.platform = &platform;
    p.catalog = &catalog;
    p.rho = 1.0;
    return p;
  }
};

/// Deterministic stress instance: random paper-shaped tree with one
/// operator per processor (every tree edge crosses — the worst case for
/// the dense link matrix), catalog and links sized to the measured loads
/// with ~1% headroom so every budget is tight but sufficient.
SimWorld make_world(std::uint64_t seed, int n_operators) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ull *
                  static_cast<std::uint64_t>(n_operators)));
  TreeGenConfig tcfg;
  tcfg.num_operators = n_operators;
  tcfg.alpha = 1.0;
  OperatorTree tree = generate_random_tree(rng, tcfg);

  const int n_procs = std::max(2, n_operators);
  Allocation alloc;
  alloc.processors.resize(static_cast<std::size_t>(n_procs));
  alloc.op_to_proc.resize(static_cast<std::size_t>(tree.num_operators()));
  for (int op = 0; op < tree.num_operators(); ++op) {
    const int u = op % n_procs;
    alloc.processors[static_cast<std::size_t>(u)].ops.push_back(op);
    alloc.op_to_proc[static_cast<std::size_t>(op)] = u;
  }
  for (auto& p : alloc.processors) {
    p.config = ProcessorConfig{0, 0};
  }

  // One server hosts every type; route all downloads there.
  std::vector<int> all_types;
  for (int t = 0; t < tree.catalog().count(); ++t) all_types.push_back(t);
  Platform sizing_platform({{0, 1e9, all_types}}, 1e9, 1e9,
                           tree.catalog().count());
  PriceCatalog sizing_catalog = PriceCatalog::paper_default();
  Problem sizing;
  sizing.tree = &tree;
  sizing.platform = &sizing_platform;
  sizing.catalog = &sizing_catalog;
  sizing.rho = 1.0;
  const auto needed = needed_types_per_processor(sizing, alloc);
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    for (int t : needed[u]) {
      alloc.processors[u].downloads.push_back({t, 0});
    }
  }

  // Size the single catalog model and the pair links off the real loads.
  const auto loads = compute_processor_loads(sizing, alloc);
  MopsPerSec max_cpu = 1.0;
  MBps max_nic = 1.0;
  for (const auto& l : loads) {
    max_cpu = std::max(max_cpu, l.cpu_demand);
    max_nic = std::max(max_nic, l.nic_total());
  }
  MegaBytes max_pair_volume = 1.0;
  {
    std::vector<std::pair<long long, double>> acc;  // (pair key, edge MB)
    for (const auto& n : tree.operators()) {
      const int u = alloc.op_to_proc[static_cast<std::size_t>(n.id)];
      for (const OutEdge& e : n.out) {
        const int v = alloc.op_to_proc[static_cast<std::size_t>(e.dst)];
        if (u == v) continue;
        acc.push_back({static_cast<long long>(std::min(u, v)) * n_procs +
                           std::max(u, v),
                       e.delta});
      }
    }
    std::sort(acc.begin(), acc.end());
    double run = 0.0;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      run += acc[i].second;
      if (i + 1 == acc.size() || acc[i + 1].first != acc[i].first) {
        max_pair_volume = std::max(max_pair_volume, run);
        run = 0.0;
      }
    }
  }

  SimWorld world{
      std::move(tree),
      Platform({{0, 1e9, all_types}}, 1e9, max_pair_volume * 1.01,
               static_cast<int>(all_types.size())),
      PriceCatalog(10.0, {{max_cpu * 1.01, 0.0}}, {{max_nic * 1.01, 0.0}}),
      std::move(alloc)};
  for (const auto& n : world.tree.operators()) {
    const int u = world.alloc.op_to_proc[static_cast<std::size_t>(n.id)];
    for (const OutEdge& e : n.out) {
      if (world.alloc.op_to_proc[static_cast<std::size_t>(e.dst)] != u) {
        ++world.crossing_edges;
      }
    }
  }
  return world;
}

struct Row {
  int n = 0;
  int procs = 0;
  int crossing = 0;
  int periods = 0;
  int periods_simulated = 0;
  int reps = 0;
  double rho_star = 0.0;
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
  double speedup = 0.0;
  bool sustained = false;
  bool identical = false;
};

template <typename F>
double time_ms_per_run(int reps, F&& run) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) run();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
             .count() /
         static_cast<double>(reps);
}

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<Row>& rows) {
  JsonArtifact a{"sim", 1, seed};
  for (const Row& r : rows) {
    a.results.push_back(JsonRow()
                            .add("num_operators", r.n)
                            .add("num_processors", r.procs)
                            .add("crossing_edges", r.crossing)
                            .add("periods", r.periods)
                            .add("periods_simulated", r.periods_simulated)
                            .add("reps", r.reps)
                            .add("rho_star", r.rho_star, 4)
                            .add("dense_ms_per_run", r.dense_ms, 4)
                            .add("sparse_ms_per_run", r.sparse_ms, 4)
                            .add("speedup", r.speedup, 2)
                            .add("sustained", r.sustained)
                            .add("identical_results", r.identical));
  }
  emit_json(a, path);
}

} // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv, {"json", "smoke"},
                  /*default_reps=*/10, /*accepts_heuristics=*/false);
  const CliArgs& args = flags.args;
  const std::string json_path = args.get("json", "BENCH_sim.json");
  const bool smoke = args.get_bool("smoke", false);

  std::vector<int> sizes = smoke ? std::vector<int>{60}
                                 : std::vector<int>{100, 200, 400};
  const int reps = smoke ? std::min(flags.repetitions, 3) : flags.repetitions;

  std::printf("Event simulator: sparse core vs dense reference\n"
              "===============================================\n\n");

  const EventSimConfig config;  // derived warmup/bound, 400 periods
  std::vector<Row> rows;
  for (int n : sizes) {
    const SimWorld world = make_world(flags.seed, n);
    const Problem prob = world.problem();
    const SimPlatformView view = SimPlatformView::uniform(world.platform);

    Row row;
    row.n = n;
    row.procs = world.alloc.num_processors();
    row.crossing = world.crossing_edges;
    row.periods = config.periods;
    row.reps = reps;
    row.rho_star = analyze_flow(prob, world.alloc).max_throughput;

    const EventSimResult sparse =
        simulate_allocation(prob, world.alloc, view, config);
    const EventSimResult dense = simulate_allocation_dense_reference(
        prob, world.alloc, view, config);
    row.periods_simulated = sparse.periods_simulated;
    row.sustained = sparse.sustained;
    row.identical =
        sparse.results_produced == dense.results_produced &&
        sparse.first_output_period == dense.first_output_period &&
        sparse.sustained == dense.sustained &&
        sparse.achieved_throughput == dense.achieved_throughput &&
        sparse.degenerate_config == dense.degenerate_config &&
        sparse.warmup_periods_used == dense.warmup_periods_used &&
        sparse.max_results_ahead_used == dense.max_results_ahead_used;

    row.sparse_ms = time_ms_per_run(reps, [&] {
      (void)simulate_allocation(prob, world.alloc, view, config);
    });
    row.dense_ms = time_ms_per_run(reps, [&] {
      (void)simulate_allocation_dense_reference(prob, world.alloc, view,
                                                config);
    });
    row.speedup = row.sparse_ms > 0.0 ? row.dense_ms / row.sparse_ms : 0.0;
    rows.push_back(row);

    std::printf(
        "N=%-4d procs=%-4d crossing=%-4d rho*=%.2f  periods %d/%d  "
        "dense %8.3f ms   sparse %8.3f ms   speedup %6.1fx   sustained=%d "
        "identical=%d\n",
        row.n, row.procs, row.crossing, row.rho_star, row.periods_simulated,
        row.periods, row.dense_ms, row.sparse_ms, row.speedup,
        row.sustained ? 1 : 0, row.identical ? 1 : 0);
  }

  write_json(json_path, flags.seed, rows);
  // The cores must agree bit-exactly on every row; a mismatch is a
  // correctness failure, not a slow row.
  for (const Row& row : rows) {
    if (!row.identical) return 1;
  }
  return 0;
}
