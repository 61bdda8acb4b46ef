#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/allocator.hpp"
#include "core/constraints.hpp"
#include "core/downgrade.hpp"
#include "core/placement_heuristics.hpp"
#include "core/server_selection.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::fig1a_fixture;

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
  EXPECT_GE(r.ops_moved, r.merges);
  EXPECT_EQ(state.num_live_processors(), before - r.merges);
  EXPECT_TRUE(state.feasible());
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
