#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/allocator.hpp"
#include "core/constraints.hpp"
#include "core/downgrade.hpp"
#include "core/placement_heuristics.hpp"
#include "core/server_selection.hpp"
#include "dynamic/dynamic_test_helpers.hpp"
#include "oracles/merge_sweep_reference.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::fig1a_fixture;

// Hand-built merge scenarios: dyntest::HandWorld's objects and platform
// (negligible downloads, links and server cards that never bind) under a
// two-CPU catalog, so each merge verdict comes down to the receiver's CPU.  The tree is a root
// (op 0) with two children (ops 1 and 2); `b` hosts ops 0 and 1 and `a`
// hosts op 2, so `a` is the lighter side and the sweep moves it onto `b`
// first.
constexpr ProcessorConfig kSmall{0, 0};  // 25 MegaOps/s, $1000
constexpr ProcessorConfig kLarge{1, 0};  // 100 MegaOps/s, $1100

struct MergeScene {
  dyntest::HandWorld w;
  PriceCatalog catalog{1000.0, {CpuModel{25.0, 0.0}, CpuModel{100.0, 100.0}},
                       {NicModel{100.0, 0.0}}};
  OperatorTree tree;
  Problem problem;

  explicit MergeScene(const std::vector<MegaOps>& work)
      : tree(w.tree({kNoNode, 0, 0}, work, {1.0, 1.0, 1.0})) {
    problem.tree = &tree;
    problem.platform = &w.platform;
    problem.catalog = &catalog;
  }

  // Buys `b` then `a` and seats ops 0 and 1 on b, op 2 on a.
  PlacementState place(ProcessorConfig b_cfg, ProcessorConfig a_cfg, int& a,
                       int& b) const {
    PlacementState state(problem);
    b = state.buy(b_cfg);
    a = state.buy(a_cfg);
    EXPECT_TRUE(state.try_place(0, b));
    EXPECT_TRUE(state.try_place(1, b));
    EXPECT_TRUE(state.try_place(2, a));
    return state;
  }
};

TEST(LocalSearch, MergesScatteredProcessors) {
  // Random placement: one cheap processor per operator; local search should
  // consolidate a light instance down to (near) one processor.
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(11);
  ASSERT_TRUE(place_random(state, rng).success);
  ASSERT_EQ(state.num_live_processors(), 5);

  const LocalSearchStats stats = refine_placement(state);
  EXPECT_GT(stats.merges, 0);
  EXPECT_EQ(state.num_live_processors(), 1);
  EXPECT_LT(stats.projected_cost_after, stats.projected_cost_before);
  EXPECT_TRUE(state.feasible());
}

TEST(LocalSearch, ProjectedCostMatchesDowngradeOutcome) {
  const Fixture f = fig1a_fixture(1.3, 20.0);
  PlacementState state(f.problem());
  Rng rng(3);
  ASSERT_TRUE(place_object_availability(state, rng).success);
  const Dollars projected = projected_downgraded_cost(state);

  // Run the real pipeline tail: server selection + downgrade.
  Allocation alloc = state.to_allocation();
  Problem prob = f.problem();
  ASSERT_TRUE(select_servers_three_loop(prob, alloc).success);
  downgrade_processors(prob, alloc);
  EXPECT_NEAR(alloc.total_cost(f.catalog), projected, 1e-6);
}

TEST(LocalSearch, NeverIncreasesProjectedCost) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Fixture f = testhelpers::random_fixture(seed, 30, 1.4);
    PlacementState state(f.problem());
    Rng rng(seed);
    if (!place_object_grouping(state, rng).success) continue;
    const Dollars before = projected_downgraded_cost(state);
    const LocalSearchStats stats = refine_placement(state);
    EXPECT_LE(stats.projected_cost_after, before + 1e-9) << "seed " << seed;
    EXPECT_TRUE(state.feasible()) << "seed " << seed;
  }
}

TEST(LocalSearch, MergeSweepReportsMergesAndMovedOperators) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(11);
  ASSERT_TRUE(place_random(state, rng).success);
  const int before = state.num_live_processors();
  const MergeSweepResult r = merge_sweep(state);
  EXPECT_GT(r.merges, 0);
  EXPECT_EQ(r.merges, r.tried - r.failed);
  EXPECT_GE(r.ops_moved, r.merges);
  EXPECT_EQ(state.num_live_processors(), before - r.merges);
  EXPECT_TRUE(state.feasible());
}

TEST(LocalSearch, PreVerdictSkipsForwardAndReverseMergeCommits) {
  // b (25 MegaOps/s) holds 20, a (100 MegaOps/s) holds 10: the merged 30
  // does not fit b, so the forward move of a onto b is never staged, and
  // the reverse move of b's two operators onto a commits.  The merge is
  // promised: one large processor ($1100) under two small ones ($2000).
  const MergeScene scene({10.0, 10.0, 10.0});
  int a = kNoNode, b = kNoNode;
  PlacementState state = scene.place(kSmall, kLarge, a, b);
  ASSERT_TRUE(merge_promises_saving(state, a, b));
  ASSERT_GT(state.cpu_demand(a) + state.cpu_demand(b),
            scene.catalog.speed(state.config(b)) *
                (1.0 + kCapacityEpsilon) + kCapacityEpsilon);
  PlacementState ref = state;

  const MergeSweepResult r = merge_sweep(state);
  EXPECT_EQ(r, (MergeSweepResult{1, 2, 1, 0}));
  EXPECT_EQ(r, merge_sweep_probe_all(ref));
  EXPECT_EQ(state.live_processors(), std::vector<int>{a});
  EXPECT_EQ(state.config(a), kLarge);
  EXPECT_DOUBLE_EQ(state.cpu_demand(a), 30.0);
  EXPECT_TRUE(state.feasible());
}

TEST(LocalSearch, PreVerdictCountsAPairNeitherSideCanHost) {
  // Both sides small: the merged 40 fits neither 25 MegaOps/s receiver.
  const MergeScene scene({10.0, 10.0, 20.0});
  int a = kNoNode, b = kNoNode;
  PlacementState state = scene.place(kSmall, kSmall, a, b);
  ASSERT_TRUE(merge_promises_saving(state, a, b));
  const Allocation before = state.to_allocation();
  PlacementState ref = state;

  const MergeSweepResult r = merge_sweep(state);
  EXPECT_EQ(r, (MergeSweepResult{0, 0, 1, 1}));
  EXPECT_EQ(r, merge_sweep_probe_all(ref));
  EXPECT_EQ(state.to_allocation(), before);
}

TEST(LocalSearch, PreVerdictProbesAMergeWithinTheCapacityEpsilon) {
  // The merged load lands above the receiver's 100 MegaOps/s speed but
  // within kCapacityEpsilon of it, up to just below the fit boundary:
  // try_place accepts each one, so the pre-verdict's margin must not
  // reject it.
  const double slack = kCapacityEpsilon * (1.0 + 100.0);
  for (double frac : {0.0, 0.5, 0.99, 0.999999}) {
    const MergeScene scene({25.0, 25.0, 50.0 + frac * slack});
    int a = kNoNode, b = kNoNode;
    PlacementState state = scene.place(kLarge, kLarge, a, b);
    ASSERT_TRUE(merge_promises_saving(state, a, b)) << frac;
    ASSERT_GE(state.cpu_demand(a) + state.cpu_demand(b), 100.0) << frac;
    PlacementState ref = state;

    const MergeSweepResult r = merge_sweep(state);
    EXPECT_EQ(r, (MergeSweepResult{1, 1, 1, 0})) << frac;
    EXPECT_EQ(r, merge_sweep_probe_all(ref)) << frac;
    EXPECT_EQ(state.live_processors(), std::vector<int>{b}) << frac;
    EXPECT_EQ(state.ops_on(b).size(), 3u) << frac;
  }
}

TEST(LocalSearch, PipelineFlagProducesValidCheaperOrEqualPlans) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Fixture f = testhelpers::random_fixture(seed, 40, 1.2);
    for (HeuristicKind k :
         {HeuristicKind::Random, HeuristicKind::ObjectAvailability}) {
      Rng r1(9), r2(9);
      AllocatorOptions plain, refined;
      refined.local_search = true;
      const AllocationOutcome a = allocate(f.problem(), k, r1, plain);
      const AllocationOutcome b = allocate(f.problem(), k, r2, refined);
      if (!a.success || !b.success) continue;
      EXPECT_LE(b.cost, a.cost + 1e-9)
          << heuristic_name(k) << " seed " << seed;
      EXPECT_TRUE(check_allocation(f.problem(), b.allocation).ok());
    }
  }
}

TEST(LocalSearch, SignificantGainOnRandomPlacement) {
  // On a mid-size instance the refinement should recover most of the gap
  // between Random and the consolidating heuristics.
  const Fixture f = testhelpers::random_fixture(7, 40, 0.9);
  Rng r1(2), r2(2);
  AllocatorOptions plain, refined;
  refined.local_search = true;
  const AllocationOutcome a =
      allocate(f.problem(), HeuristicKind::Random, r1, plain);
  const AllocationOutcome b =
      allocate(f.problem(), HeuristicKind::Random, r2, refined);
  ASSERT_TRUE(a.success && b.success);
  EXPECT_LT(b.cost, 0.5 * a.cost);
}

} // namespace
} // namespace insp
