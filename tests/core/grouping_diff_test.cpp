// Differential oracle for the grouping technique (docs/DESIGN.md §10, group
// lift).  place_with_grouping keeps one lifted journal baseline per call and
// an incrementally grown frontier; the reference below is the direct form it
// replaced, kept here as a test-only oracle: every growth step rebuilds the
// frontier from scratch with linear searches, and every purchase attempt
// re-lifts the whole group (can_place_on_new_batch for CheapestFirst, a
// literal buy + try_place + sell for MostExpensiveOnly).
//
// Along seeded walks over fuzzed trees and folded shared-subexpression DAGs
// (§13), twin states receive the same mutations; after every grouping call
// the two must agree on the verdict, the failure text, the purchased
// configuration, the assignment (processors numbered densely in pid order,
// since the oracle burns a processor id per rejected MostExpensiveOnly
// step) and the live configurations in order.  A second test drives the
// lift protocol step by step and checks the lifted state against the group
// unassigned one member at a time (bit for bit), each lifted verdict vector
// against a from-scratch can_place_on_new_batch and against literal
// buy + can_place + sell, each frontier pick against the rebuilt frontier,
// and the bit-exact restore after the lift ends.
#include "core/placement_common.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../test_helpers.hpp"
#include "multi/multi_app.hpp"
#include "multi/subexpression_fold.hpp"
#include "util/rng.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;

// --- reference algorithm ---------------------------------------------------

std::vector<std::pair<int, MBps>> reference_frontier(
    const PlacementState& state, const std::vector<int>& group) {
  std::vector<std::pair<int, MBps>> frontier;
  auto in_group = [&](int op) {
    return std::find(group.begin(), group.end(), op) != group.end();
  };
  for (int member : group) {
    state.visit_neighbors(member, [&](int nb, MBps volume) {
      if (in_group(nb)) return;
      auto it = std::find_if(frontier.begin(), frontier.end(),
                             [&](const auto& f) { return f.first == nb; });
      if (it == frontier.end()) {
        frontier.emplace_back(nb, volume);
      } else {
        it->second = std::max(it->second, volume);
      }
    });
  }
  return frontier;
}

std::optional<std::pair<int, MBps>> reference_pick(
    const std::vector<std::pair<int, MBps>>& frontier) {
  if (frontier.empty()) return std::nullopt;
  return *std::max_element(
      frontier.begin(), frontier.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second < b.second;
        return a.first > b.first;  // tie: smaller id wins
      });
}

bool reference_buy_and_place(PlacementState& state,
                             const std::vector<int>& group,
                             GroupConfigPolicy policy, int* out_pid) {
  const PriceCatalog& cat = *state.problem().catalog;
  if (policy == GroupConfigPolicy::MostExpensiveOnly) {
    const int pid = state.buy(cat.most_expensive());
    if (state.try_place(group, pid)) {
      *out_pid = pid;
      return true;
    }
    state.sell(pid);
    return false;
  }
  const auto& configs = cat.by_cost();
  std::vector<unsigned char> verdicts;
  state.can_place_on_new_batch(group, configs, verdicts);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (!verdicts[c]) continue;
    const int pid = state.buy(configs[c]);
    if (state.try_place(group, pid)) {
      *out_pid = pid;
      return true;
    }
    state.sell(pid);
  }
  return false;
}

std::optional<int> reference_place_with_grouping(PlacementState& state,
                                                 int seed,
                                                 GroupConfigPolicy policy,
                                                 std::string* why) {
  std::vector<int> group = {seed};
  for (;;) {
    int pid = -1;
    if (reference_buy_and_place(state, group, policy, &pid)) return pid;
    const auto grow = reference_pick(reference_frontier(state, group));
    if (!grow) {
      *why = "operator group around " + std::to_string(seed) + " (size " +
             std::to_string(group.size()) +
             ") fits on no purchasable processor";
      return std::nullopt;
    }
    group.push_back(grow->first);
  }
}

// --- worlds ----------------------------------------------------------------

/// Paper-style tree with heavy objects, so single operators often fit no
/// processor and groups grow several steps.
Fixture tree_world(std::uint64_t seed) {
  const int n = 8 + static_cast<int>(seed % 17);
  const double alpha = 1.2 + 0.15 * static_cast<double>(seed % 6);
  return testhelpers::random_fixture(seed, n, alpha, 20.0, 120.0);
}

/// Three applications (two drawn identically) folded into a DAG whose
/// shared operators have several consumers.
Fixture dag_world(std::uint64_t seed) {
  Rng gen(seed);
  ObjectCatalog objects = ObjectCatalog::random(gen, 12, 20.0, 120.0, 0.5);
  TreeGenConfig tcfg;
  tcfg.num_operators = 6 + static_cast<int>(seed % 6);
  tcfg.alpha = 1.1 + 0.1 * static_cast<double>(seed % 7);
  std::vector<ApplicationSpec> apps;
  for (const std::uint64_t s : {seed * 3 + 1, seed * 3 + 1, seed * 3 + 2}) {
    Rng t(s);
    apps.push_back({generate_random_tree(t, tcfg, objects), 1.0});
  }
  const CombinedApplication combined = combine_applications(apps);
  FoldResult fold = fold_shared_subexpressions(combined.forest);
  ServerDistConfig dist;
  dist.num_object_types = 12;
  Rng pg(seed ^ 0x9E3779B9u);
  Platform platform = make_paper_platform(pg, dist);
  return Fixture{std::move(fold.dag), std::move(platform),
                 PriceCatalog::paper_default(), 1.0};
}

// --- comparison --------------------------------------------------------------

/// Operator -> index of its processor among the live ones (pid order), or
/// -1: the assignment with processor ids numbered densely.
std::vector<int> dense_assignment(const PlacementState& state) {
  const std::vector<int>& live = state.live_processors();
  const int n = state.problem().tree->num_operators();
  std::vector<int> out(static_cast<std::size_t>(n), -1);
  for (int op = 0; op < n; ++op) {
    const int pid = state.proc_of(op);
    if (pid == kNoNode) continue;
    out[static_cast<std::size_t>(op)] = static_cast<int>(
        std::lower_bound(live.begin(), live.end(), pid) - live.begin());
  }
  return out;
}

std::vector<std::pair<int, int>> live_configs(const PlacementState& state) {
  std::vector<std::pair<int, int>> out;
  for (int pid : state.live_processors()) {
    out.emplace_back(state.config(pid).cpu, state.config(pid).nic);
  }
  return out;
}

/// Every observable load of the state, for exact restore comparison.
struct Fingerprint {
  std::vector<int> assignment;
  std::vector<int> live;
  std::vector<double> loads;
  std::vector<double> traffic;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const PlacementState& state) {
  Fingerprint f;
  const int n = state.problem().tree->num_operators();
  for (int op = 0; op < n; ++op) f.assignment.push_back(state.proc_of(op));
  f.live = state.live_processors();
  for (int pid : f.live) {
    f.loads.push_back(state.cpu_demand(pid));
    f.loads.push_back(state.download_load(pid));
    f.loads.push_back(state.comm_load(pid));
    for (int q : f.live) {
      if (q > pid) f.traffic.push_back(state.pair_traffic(pid, q));
    }
  }
  return f;
}

/// Twin-state walk: grouping calls interleaved with seatings on existing
/// processors and removals, so calls start from mixed partial placements
/// (group members pulled off live processors, emptied sources sold).
struct WalkStats {
  int calls = 0;
  int successes = 0;
  int multi_step = 0;  // calls whose group grew beyond the seed
};

void walk(const Fixture& f, std::uint64_t seed, int steps, WalkStats* stats) {
  PlacementState mine(f.problem());
  PlacementState ref(f.problem());
  Rng rng(seed);
  const int n = f.tree.num_operators();
  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
    const int action = static_cast<int>(rng.uniform_int(0, 9));
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " op " +
                              std::to_string(op);
    if (action < 6) {
      const GroupConfigPolicy policy =
          rng.bernoulli(0.5) ? GroupConfigPolicy::CheapestFirst
                             : GroupConfigPolicy::MostExpensiveOnly;
      std::string why_mine, why_ref;
      const auto got = place_with_grouping(mine, op, policy, &why_mine);
      const auto want =
          reference_place_with_grouping(ref, op, policy, &why_ref);
      ++stats->calls;
      ASSERT_EQ(got.has_value(), want.has_value()) << where;
      if (got) {
        ++stats->successes;
        EXPECT_EQ(mine.config(*got).cpu, ref.config(*want).cpu) << where;
        EXPECT_EQ(mine.config(*got).nic, ref.config(*want).nic) << where;
        EXPECT_EQ(mine.proc_of(op), *got) << where;
        if (mine.ops_on(*got).size() > 1) ++stats->multi_step;
      } else {
        EXPECT_EQ(why_mine, why_ref) << where;
        if (why_mine.find("(size 1)") == std::string::npos) ++stats->multi_step;
      }
    } else if (action < 9) {
      // Seat op on the k-th live processor (ids differ between the twins).
      if (mine.num_live_processors() == 0) continue;
      const std::size_t k = rng.index(mine.live_processors().size());
      const bool a = mine.try_place(op, mine.live_processors()[k]);
      const bool b = ref.try_place(op, ref.live_processors()[k]);
      ASSERT_EQ(a, b) << where;
    } else if (mine.proc_of(op) != kNoNode) {
      mine.search_unassign(op);
      ref.search_unassign(op);
    }
    ASSERT_EQ(dense_assignment(mine), dense_assignment(ref)) << where;
    ASSERT_EQ(live_configs(mine), live_configs(ref)) << where;
  }
  if (mine.num_unassigned() == 0) {
    EXPECT_EQ(mine.to_allocation(), ref.to_allocation()) << "seed " << seed;
  }
}

TEST(GroupingDiff, TreesMatchTheReferenceAlgorithm) {
  WalkStats stats;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    walk(tree_world(seed), seed, 40, &stats);
    if (HasFatalFailure()) return;
  }
  // The walk must actually exercise both outcomes and real growth.
  EXPECT_GT(stats.successes, stats.calls / 4);
  EXPECT_LT(stats.successes, stats.calls);
  EXPECT_GT(stats.multi_step, stats.calls / 10);
}

TEST(GroupingDiff, FoldedDagsMatchTheReferenceAlgorithm) {
  WalkStats stats;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    walk(dag_world(seed), 1000 + seed, 40, &stats);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(stats.successes, stats.calls / 4);
  EXPECT_GT(stats.multi_step, stats.calls / 10);
}

/// Partially seated state: roughly half the operators on a few processors.
PlacementState partial_state(const Fixture& f, Rng& rng) {
  PlacementState state(f.problem());
  const auto& configs = f.catalog.by_cost();
  for (int i = 0; i < 3; ++i) state.buy(configs[configs.size() - 1 - i]);
  const std::vector<int> live = state.live_processors();
  for (int op = 0; op < f.tree.num_operators(); ++op) {
    if (rng.bernoulli(0.5)) (void)state.try_place(op, live[rng.index(3)]);
  }
  return state;
}

/// The literal purchase emulation: verdicts[c] is whether buying configs[c]
/// and moving the whole group there would pass the sequential probe.
std::vector<unsigned char> literal_verdicts(
    PlacementState state, const std::vector<int>& group,
    const std::vector<ProcessorConfig>& configs) {
  std::vector<unsigned char> out;
  for (const ProcessorConfig& c : configs) {
    const int pid = state.buy(c);
    out.push_back(state.can_place(group, pid) ? 1 : 0);
    state.sell(pid);
  }
  return out;
}

void check_lift_steps(const Fixture& f, std::uint64_t seed) {
  Rng rng(seed);
  const PlacementState before = partial_state(f, rng);
  const PriceCatalog& cat = f.catalog;
  const ProcessorConfig top = cat.most_expensive();
  const std::vector<ProcessorConfig> top_only = {top};
  const int n = f.tree.num_operators();
  for (int start = 0; start < n; ++start) {
    PlacementState state = before;
    PlacementState scratch = before;     // from-scratch verdicts
    PlacementState unassigned = before;  // members unassigned one by one
    std::vector<int> group;
    std::vector<unsigned char> want;
    const auto add = [&](int op) {
      state.lift_member(op);
      if (unassigned.proc_of(op) != kNoNode) unassigned.search_unassign(op);
      group.push_back(op);
    };
    state.begin_group_lift();
    add(start);
    for (int step = 0;; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " start " +
                                std::to_string(start) + " step " +
                                std::to_string(step);
      ASSERT_EQ(state.lifted_group(), group) << where;
      // The open baseline is the sequential unassign of the group, double
      // for double.
      EXPECT_TRUE(fingerprint(state) == fingerprint(unassigned)) << where;
      scratch.can_place_on_new_batch(group, cat.by_cost(), want);
      const auto got_all = state.lifted_verdicts(cat.by_cost().data(),
                                                 cat.by_cost().size());
      EXPECT_EQ(got_all, want) << where;
      EXPECT_EQ(got_all, literal_verdicts(before, group, cat.by_cost()))
          << where;
      scratch.can_place_on_new_batch(group, top_only, want);
      const auto got_top = state.lifted_verdicts(&top, 1);
      EXPECT_EQ(got_top, want) << where;
      // A rejected purchase ends the lift mid-call; the next member then
      // re-lifts the whole group.
      if (rng.bernoulli(0.3)) {
        state.end_group_lift();
        EXPECT_TRUE(fingerprint(state) == fingerprint(before)) << where;
      }
      MBps volume = -1.0;
      const int next = state.heaviest_group_neighbor(&volume);
      const auto ref = reference_pick(reference_frontier(before, group));
      if (!ref) {
        EXPECT_EQ(next, kNoNode) << where;
        break;
      }
      ASSERT_EQ(next, ref->first) << where;
      EXPECT_EQ(volume, ref->second) << where;
      add(next);
    }
    state.end_group_lift();
    ASSERT_TRUE(fingerprint(state) == fingerprint(before))
        << "seed " << seed << " start " << start;
  }
}

TEST(GroupingDiff, LiftedVerdictsMatchFromScratchAtEveryStep) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    check_lift_steps(tree_world(seed), seed);
    check_lift_steps(dag_world(seed), 500 + seed);
    if (HasFatalFailure()) return;
  }
}

} // namespace
} // namespace insp
