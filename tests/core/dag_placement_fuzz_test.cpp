// Placement-state fuzzer for shared-subexpression DAGs: the same
// random-walk-vs-recompute-oracle discipline as placement_fuzz_test.cpp,
// but over generate_shared_dag instances where operators fan out to
// several consumers.  The oracle restates the multicast charging rule of
// docs/DESIGN.md §13 independently: a producer ships ONE copy of its
// result to each *distinct* remote processor hosting consumers, and that
// copy is as large as the biggest out-edge delta into that processor —
// co-hosted consumers ride the same transfer for free.  As there, every
// probe result is also checked against the whole-state capacity verdict of
// oracles/verdict_oracle.hpp.
#include "core/placement_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "oracles/verdict_oracle.hpp"
#include "platform/catalog.hpp"
#include "platform/platform.hpp"
#include "tree/tree_generator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace insp {
namespace {

struct FuzzWorld {
  OperatorTree dag;
  Platform platform;
  PriceCatalog prices;

  Problem problem() const {
    Problem p;
    p.tree = &dag;
    p.platform = &platform;
    p.catalog = &prices;
    p.rho = 1.0;
    return p;
  }
};

FuzzWorld make_fuzz_world(std::uint64_t seed, int n_ops, double share_prob) {
  Rng gen(seed);
  TreeGenConfig tcfg;
  tcfg.num_operators = n_ops;
  tcfg.alpha = 1.0;
  tcfg.num_object_types = 6;
  OperatorTree dag = generate_shared_dag(gen, tcfg, share_prob);
  std::vector<DataServer> servers;
  for (int s = 0; s < 3; ++s) {
    servers.push_back(DataServer{s, units::gigabytes_per_sec(10.0),
                                 {0, 1, 2, 3, 4, 5}});
  }
  Platform platform(std::move(servers), units::gigabytes_per_sec(1.0),
                    units::gigabytes_per_sec(1.0), 6);
  return FuzzWorld{std::move(dag), std::move(platform),
                   PriceCatalog::paper_default()};
}

struct Oracle {
  std::vector<int> live;
  std::map<int, double> cpu_demand, download, comm;
  std::map<std::pair<int, int>, double> link_traffic;
  double total_cost = 0.0;
  std::vector<int> overloaded_procs;
  std::vector<std::pair<int, int>> overloaded_links;
};

/// `assign` maps each operator to its processor (kNoNode: unassigned); the
/// live processors and their configurations come from `state`.
Oracle recompute(const FuzzWorld& world, const PlacementState& state,
                 const std::vector<int>& assign) {
  Oracle o;
  const auto proc_of = [&](int op) {
    return assign[static_cast<std::size_t>(op)];
  };
  const OperatorTree& dag = world.dag;
  const double rho = 1.0;
  o.live = state.live_processors();
  for (int pid : o.live) {
    double work = 0.0;
    std::vector<int> types;
    for (int op = 0; op < dag.num_operators(); ++op) {
      if (proc_of(op) != pid) continue;
      work += dag.op(op).work;
      for (int t : dag.object_types_of(op)) types.push_back(t);
    }
    std::sort(types.begin(), types.end());
    types.erase(std::unique(types.begin(), types.end()), types.end());
    double download = 0.0;
    for (int t : types) download += dag.catalog().type(t).rate();
    o.cpu_demand[pid] = rho * work;
    o.download[pid] = download;
    o.comm[pid] = 0.0;
    o.total_cost += world.prices.cost(state.config(pid));
  }
  // Multicast dedup: one shipment per (producer, distinct remote consumer
  // processor), sized by the largest out-edge delta into that processor.
  for (int op = 0; op < dag.num_operators(); ++op) {
    const int pc = proc_of(op);
    if (pc == kNoNode) continue;
    std::map<int, double> dest_max;  // remote proc -> max delta
    for (const OutEdge& e : dag.op(op).out) {
      const int q = proc_of(e.dst);
      if (q == kNoNode || q == pc) continue;
      auto [it, fresh] = dest_max.emplace(q, e.delta);
      if (!fresh) it->second = std::max(it->second, e.delta);
    }
    for (const auto& [q, mx] : dest_max) {
      const double volume = rho * mx;
      o.comm[pc] += volume;
      o.comm[q] += volume;
      o.link_traffic[{std::min(pc, q), std::max(pc, q)}] += volume;
    }
  }
  for (int pid : o.live) {
    if (!fits_within(o.cpu_demand[pid],
                     world.prices.speed(state.config(pid))) ||
        !fits_within(o.download[pid] + o.comm[pid],
                     world.prices.bandwidth(state.config(pid)))) {
      o.overloaded_procs.push_back(pid);
    }
  }
  for (const auto& [link, used] : o.link_traffic) {
    if (!fits_within(used, world.platform.link_proc_proc())) {
      o.overloaded_links.push_back(link);
    }
  }
  return o;
}

std::vector<int> assignment_of(const PlacementState& state, int n_ops) {
  std::vector<int> assign;
  for (int op = 0; op < n_ops; ++op) assign.push_back(state.proc_of(op));
  return assign;
}

Oracle recompute(const FuzzWorld& world, const PlacementState& state) {
  return recompute(world, state,
                   assignment_of(state, world.dag.num_operators()));
}

/// The oracle's verdict on moving `ops` onto `pid`, computed on the state
/// before the move from the current assignment and a copy with the move
/// applied.
verdict_oracle::Verdict oracle_verdict(const FuzzWorld& world,
                                       const PlacementState& state,
                                       const std::vector<int>& ops, int pid,
                                       verdict_oracle::Coverage& coverage) {
  std::vector<int> assign = assignment_of(state, world.dag.num_operators());
  const Oracle before = recompute(world, state, assign);
  for (int op : ops) assign[static_cast<std::size_t>(op)] = pid;
  return verdict_oracle::whole_state_verdict(
      before, recompute(world, state, assign), state, world.prices,
      world.platform.link_proc_proc(), coverage);
}

/// Compares a probe's result with the oracle's verdict, unless the oracle
/// called the step too close to a boundary.
void expect_verdict(verdict_oracle::Verdict expected, bool actual, int step,
                    const char* probe) {
  if (expected == verdict_oracle::Verdict::kTooClose) return;
  EXPECT_EQ(actual, expected == verdict_oracle::Verdict::kAccept)
      << "step " << step << ": " << probe
      << " disagrees with the whole-state capacity verdict";
}

#define FUZZ_NEAR(actual, expected)                                       \
  EXPECT_NEAR(actual, expected, 1e-6 * (1.0 + std::abs(expected)))        \
      << "step " << step << ": " << #actual

void check_against_oracle(const FuzzWorld& world, PlacementState& state,
                          int step) {
  const Oracle o = recompute(world, state);
  ASSERT_EQ(state.live_processors(), o.live) << "step " << step;
  for (int pid : o.live) {
    FUZZ_NEAR(state.cpu_demand(pid), o.cpu_demand.at(pid));
    FUZZ_NEAR(state.download_load(pid), o.download.at(pid));
    FUZZ_NEAR(state.comm_load(pid), o.comm.at(pid));
    FUZZ_NEAR(state.nic_load(pid), o.download.at(pid) + o.comm.at(pid));
  }
  for (std::size_t i = 0; i < o.live.size(); ++i) {
    for (std::size_t j = i + 1; j < o.live.size(); ++j) {
      const auto key = std::make_pair(o.live[i], o.live[j]);
      const auto it = o.link_traffic.find(key);
      const double expected = it == o.link_traffic.end() ? 0.0 : it->second;
      FUZZ_NEAR(state.pair_traffic(o.live[i], o.live[j]), expected);
    }
  }
  FUZZ_NEAR(state.total_cost(), o.total_cost);
  EXPECT_EQ(state.overloaded_processors(), o.overloaded_procs)
      << "step " << step;
  EXPECT_EQ(state.overloaded_links(), o.overloaded_links) << "step " << step;
}

std::vector<int> random_ops(Rng& rng, int n_ops) {
  std::vector<int> ops;
  const int count = 1 + static_cast<int>(rng.index(3));
  for (int i = 0; i < count; ++i) {
    const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
    if (std::find(ops.begin(), ops.end(), op) == ops.end()) ops.push_back(op);
  }
  return ops;
}

void run_walk(std::uint64_t seed, double share_prob) {
  constexpr int kSteps = 1200;
  FuzzWorld world = make_fuzz_world(seed, /*n_ops=*/24, share_prob);
  ASSERT_FALSE(world.dag.validate().has_value());
  PlacementState state(world.problem());
  Rng rng(seed);
  const int n_ops = world.dag.num_operators();
  const auto& configs = world.prices.by_cost();
  int commits = 0, rejections = 0, probes = 0;
  verdict_oracle::Coverage verdicts;

  for (int step = 0; step < kSteps; ++step) {
    const std::vector<int> live = state.live_processors();
    const int action = static_cast<int>(rng.index(100));

    if (action < 12 || live.empty()) {
      state.buy(configs[rng.index(configs.size())]);
    } else if (action < 18) {
      for (int pid : live) {
        if (state.ops_on(pid).empty()) {
          state.sell(pid);
          break;
        }
      }
    } else if (action < 48) {
      const std::vector<int> ops = random_ops(rng, n_ops);
      const int pid = live[rng.index(live.size())];
      const auto expected = oracle_verdict(world, state, ops, pid, verdicts);
      const bool ok = state.try_place(ops, pid);
      expect_verdict(expected, ok, step, "try_place");
      (ok ? commits : rejections) += 1;
    } else if (action < 62) {
      // Probe-only: rollback must restore the multicast accounting exactly.
      const std::vector<int> ops = random_ops(rng, n_ops);
      const int pid = live[rng.index(live.size())];
      const double cost_before = state.total_cost();
      const auto expected = oracle_verdict(world, state, ops, pid, verdicts);
      expect_verdict(expected, state.can_place(ops, pid), step, "can_place");
      ++probes;
      EXPECT_EQ(state.total_cost(), cost_before) << "step " << step;
    } else if (action < 72) {
      const int pid = live[rng.index(live.size())];
      state.try_reconfigure(pid, configs[rng.index(configs.size())]);
    } else if (action < 84) {
      // Demand refresh on a (possibly shared) operator: set_demand rewrites
      // every out-edge delta, the refresh must re-charge every lane.
      const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
      const MegaOps old_w = world.dag.op(op).work;
      const MegaBytes old_d = world.dag.op(op).output_mb;
      const double factor = rng.uniform_real(0.5, 1.8);
      world.dag.set_demand(op, old_w * factor, old_d * factor);
      state.refresh_op_demand(op, old_w, old_d);
    } else {
      const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
      if (state.proc_of(op) == kNoNode) {
        const int pid = live[rng.index(live.size())];
        const auto expected = oracle_verdict(world, state, {op}, pid, verdicts);
        expect_verdict(expected, state.search_place(op, pid), step,
                       "search_place");
      } else {
        state.search_unassign(op);
      }
    }

    check_against_oracle(world, state, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(commits, 30);
  EXPECT_GT(rejections, 30);
  EXPECT_GT(probes, 60);
  EXPECT_GT(verdicts.checked, 300);
  EXPECT_LT(verdicts.too_close, verdicts.checked / 100 + 1);
  EXPECT_GT(verdicts.drains, 0);
  EXPECT_GT(verdicts.growths, 5);
  std::printf("verdicts checked %ld, skipped near a boundary %ld, drains %ld, "
              "growth refusals %ld\n",
              verdicts.checked, verdicts.too_close, verdicts.drains,
              verdicts.growths);
}

TEST(DagPlacementFuzz, ModerateSharingMatchesOracleEveryStep) {
  run_walk(0xDA60u, /*share_prob=*/0.35);
}

TEST(DagPlacementFuzz, HeavySharingMatchesOracleEveryStep) {
  run_walk(0xDA61u, /*share_prob=*/0.7);
}

} // namespace
} // namespace insp
