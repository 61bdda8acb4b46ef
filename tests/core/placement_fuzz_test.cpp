// Property-based invariant fuzzer for the transactional placement engine:
// a seeded ~2000-step random walk over the full mutation surface —
// buy/sell, try_place, probe-only can_place (rollback path),
// try_reconfigure, search_place/search_unassign, and the dynamic refresh
// hooks — where after EVERY step the incremental accounting is checked
// against a naive recompute-from-scratch oracle built from nothing but the
// tree, the catalogs, and the assignment: per-processor CPU / download /
// comm loads, pairwise link traffic, ledger overload lists, the live and
// unassigned id lists, and the total cost.  The oracle shares no code with
// PlacementState, so any drift the undo journal or the refresh deltas
// introduce fails within one step of the mutation that caused it.  Every
// try_place, can_place and search_place result is also checked against the
// whole-state capacity verdict of oracles/verdict_oracle.hpp, on feasible
// and degraded states alike.
#include "core/placement_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
  OperatorTree tree;
  Platform platform;
  PriceCatalog prices;

  Problem problem() const {
    Problem p;
    p.tree = &tree;
    p.platform = &platform;
    p.catalog = &prices;
    p.rho = 1.0;
    return p;
  }
};

FuzzWorld make_fuzz_world(std::uint64_t seed, int n_ops) {
  Rng gen(seed);
  ObjectCatalog objects = ObjectCatalog::random(gen, 6, 5.0, 30.0, 0.5);
  TreeGenConfig tcfg;
  tcfg.num_operators = n_ops;
  tcfg.alpha = 1.0;
  tcfg.num_object_types = 6;
  OperatorTree tree = generate_random_tree(gen, tcfg, objects);
  std::vector<DataServer> servers;
  for (int s = 0; s < 3; ++s) {
    servers.push_back(DataServer{s, units::gigabytes_per_sec(10.0),
                                 {0, 1, 2, 3, 4, 5}});
  }
  Platform platform(std::move(servers), units::gigabytes_per_sec(1.0),
                    units::gigabytes_per_sec(1.0), 6);
  return FuzzWorld{std::move(tree), std::move(platform),
                   PriceCatalog::paper_default()};
}

/// Ground truth recomputed from scratch: assignment in, loads out.  The
/// charging semantics of docs/DESIGN.md §3, restated independently.
struct Oracle {
  std::vector<int> live;        // ascending pids
  std::vector<int> unassigned;  // ascending ops
  std::map<int, double> cpu_demand, download, comm;
  std::map<std::pair<int, int>, double> link_traffic;  // (min,max) -> MBps
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
  const OperatorTree& tree = world.tree;
  const double rho = 1.0;
  o.live = state.live_processors();  // pids are state-internal; loads are not
  for (int op = 0; op < tree.num_operators(); ++op) {
    if (proc_of(op) == kNoNode) o.unassigned.push_back(op);
  }
  for (int pid : o.live) {
    double work = 0.0;
    std::vector<int> types;
    for (int op = 0; op < tree.num_operators(); ++op) {
      if (proc_of(op) != pid) continue;
      work += tree.op(op).work;
      for (int t : tree.object_types_of(op)) types.push_back(t);
    }
    std::sort(types.begin(), types.end());
    types.erase(std::unique(types.begin(), types.end()), types.end());
    double download = 0.0;
    for (int t : types) download += tree.catalog().type(t).rate();
    o.cpu_demand[pid] = rho * work;
    o.download[pid] = download;
    o.comm[pid] = 0.0;
    o.total_cost += world.prices.cost(state.config(pid));
  }
  // Crossing edges: charged to both endpoint NICs and to the pairwise link.
  for (int child = 0; child < tree.num_operators(); ++child) {
    const int parent = tree.op(child).parent();
    if (parent == kNoNode) continue;
    const int pc = proc_of(child);
    const int pp = proc_of(parent);
    if (pc == kNoNode || pp == kNoNode || pc == pp) continue;
    const double volume = rho * tree.op(child).output_mb;
    o.comm[pc] += volume;
    o.comm[pp] += volume;
    o.link_traffic[{std::min(pc, pp), std::max(pc, pp)}] += volume;
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
                   assignment_of(state, world.tree.num_operators()));
}

/// The oracle's verdict on moving `ops` onto `pid`, computed on the state
/// before the move from the current assignment and a copy with the move
/// applied.
verdict_oracle::Verdict oracle_verdict(const FuzzWorld& world,
                                       const PlacementState& state,
                                       const std::vector<int>& ops, int pid,
                                       verdict_oracle::Coverage& coverage) {
  std::vector<int> assign = assignment_of(state, world.tree.num_operators());
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
  ASSERT_EQ(state.unassigned_ops(), o.unassigned) << "step " << step;
  ASSERT_EQ(state.num_unassigned(), static_cast<int>(o.unassigned.size()));
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

TEST(PlacementFuzz, IncrementalAccountingMatchesNaiveOracleEveryStep) {
  constexpr int kSteps = 2000;
  FuzzWorld world = make_fuzz_world(0xF022u, /*n_ops=*/26);
  PlacementState state(world.problem());
  Rng rng(0xF022u);
  const int n_ops = world.tree.num_operators();
  const auto& configs = world.prices.by_cost();

  // Coverage counters: the walk must actually exercise commits AND
  // rollbacks on every mutation family, otherwise the oracle proves
  // nothing about the paths that matter.
  int commits = 0, rejections = 0, probes = 0, reconfigures = 0;
  int refreshes = 0, searches = 0;
  verdict_oracle::Coverage verdicts;

  for (int step = 0; step < kSteps; ++step) {
    const std::vector<int> live = state.live_processors();
    const int action = static_cast<int>(rng.index(100));

    if (action < 10 || live.empty()) {  // buy (sometimes deliberately idle)
      state.buy(configs[rng.index(configs.size())]);
    } else if (action < 15) {  // sell a random empty processor, if any
      for (int pid : live) {
        if (state.ops_on(pid).empty()) {
          state.sell(pid);
          break;
        }
      }
    } else if (action < 40) {  // committed move
      const std::vector<int> ops = random_ops(rng, n_ops);
      const int pid = live[rng.index(live.size())];
      const auto expected = oracle_verdict(world, state, ops, pid, verdicts);
      const bool ok = state.try_place(ops, pid);
      expect_verdict(expected, ok, step, "try_place");
      (ok ? commits : rejections) += 1;
    } else if (action < 55) {  // probe-only: can_place must change nothing
      const std::vector<int> ops = random_ops(rng, n_ops);
      const int pid = live[rng.index(live.size())];
      const double cost_before = state.total_cost();
      std::vector<int> assignment_before;
      for (int op = 0; op < n_ops; ++op) {
        assignment_before.push_back(state.proc_of(op));
      }
      const auto expected = oracle_verdict(world, state, ops, pid, verdicts);
      expect_verdict(expected, state.can_place(ops, pid), step, "can_place");
      ++probes;
      // Rollback is a bit-exact value snapshot: exact equality, no epsilon.
      EXPECT_EQ(state.total_cost(), cost_before) << "step " << step;
      for (int op = 0; op < n_ops; ++op) {
        ASSERT_EQ(state.proc_of(op), assignment_before[static_cast<std::size_t>(op)])
            << "step " << step << ": can_place moved op " << op;
      }
    } else if (action < 65) {  // re-price in place
      const int pid = live[rng.index(live.size())];
      if (state.try_reconfigure(pid, configs[rng.index(configs.size())])) {
        ++reconfigures;
      }
    } else if (action < 80) {  // dynamic demand refresh (may overload)
      const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
      const MegaOps old_w = world.tree.op(op).work;
      const MegaBytes old_d = world.tree.op(op).output_mb;
      const double factor = rng.uniform_real(0.5, 1.8);
      world.tree.set_demand(op, old_w * factor, old_d * factor);
      state.refresh_op_demand(op, old_w, old_d);
      ++refreshes;
    } else if (action < 90) {  // dynamic object-rate refresh
      const int type = static_cast<int>(rng.index(6));
      const MBps old_rate = world.tree.catalog().type(type).rate();
      world.tree.mutable_catalog().set_type_frequency(
          type, rng.uniform_real(0.1, 1.5));
      state.refresh_object_rate(type, old_rate);
      ++refreshes;
    } else {  // expert search hooks: raw assign/unassign, no auto-sell
      const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n_ops)));
      if (state.proc_of(op) == kNoNode) {
        const int pid = live[rng.index(live.size())];
        const auto expected = oracle_verdict(world, state, {op}, pid, verdicts);
        expect_verdict(expected, state.search_place(op, pid), step,
                       "search_place");
      } else {
        state.search_unassign(op);
      }
      ++searches;
    }

    check_against_oracle(world, state, step);
    if (HasFatalFailure()) return;
  }

  // The walk covered every family, both probe verdicts, and both branches of
  // the capacity rule that only degraded states reach.
  EXPECT_GT(commits, 50);
  EXPECT_GT(rejections, 50);
  EXPECT_GT(probes, 100);
  EXPECT_GT(reconfigures, 10);
  EXPECT_GT(refreshes, 200);
  EXPECT_GT(searches, 50);
  EXPECT_GT(verdicts.checked, 400);
  EXPECT_LT(verdicts.too_close, verdicts.checked / 100 + 1);
  EXPECT_GT(verdicts.drains, 0);
  EXPECT_GT(verdicts.growths, 5);
  std::printf("verdicts checked %ld, skipped near a boundary %ld, drains %ld, "
              "growth refusals %ld\n",
              verdicts.checked, verdicts.too_close, verdicts.drains,
              verdicts.growths);
}

} // namespace
} // namespace insp
