#include "core/allocator.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/server_selection.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::fig1a_fixture;

TEST(Allocator, HeuristicNamesRoundTrip) {
  for (HeuristicKind k : all_heuristics()) {
    const auto back = heuristic_from_name(heuristic_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(heuristic_from_name("Nope").has_value());
  EXPECT_EQ(all_heuristics().size(), 6u);
}

TEST(Allocator, FullPipelineProducesValidatedPlan) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  for (HeuristicKind k : all_heuristics()) {
    Rng rng(3);
    const AllocationOutcome out = allocate(f.problem(), k, rng);
    ASSERT_TRUE(out.success) << heuristic_name(k) << ": "
                             << out.failure_reason;
    EXPECT_GT(out.cost, 0.0);
    EXPECT_EQ(out.num_processors, out.allocation.num_processors());
    EXPECT_DOUBLE_EQ(out.cost, out.allocation.total_cost(f.catalog));
    // Downloads were filled in by server selection.
    for (const auto& p : out.allocation.processors) {
      EXPECT_FALSE(p.ops.empty());
    }
  }
}

TEST(Allocator, DowngradeReducesOrKeepsCost) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  for (HeuristicKind k : all_heuristics()) {
    Rng r1(5), r2(5);
    AllocatorOptions with, without;
    without.downgrade = false;
    const AllocationOutcome a = allocate(f.problem(), k, r1, with);
    const AllocationOutcome b = allocate(f.problem(), k, r2, without);
    ASSERT_TRUE(a.success && b.success) << heuristic_name(k);
    EXPECT_LE(a.cost, b.cost) << heuristic_name(k);
    EXPECT_DOUBLE_EQ(a.cost_before_downgrade, b.cost) << heuristic_name(k);
  }
}

TEST(Allocator, PlacementFailureReported) {
  const Fixture f = fig1a_fixture(2.5, 30.0);  // impossible root
  Rng rng(1);
  const AllocationOutcome out =
      allocate(f.problem(), HeuristicKind::CompGreedy, rng);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("placement:"), std::string::npos);
}

TEST(Allocator, ServerSelectionFailureReported) {
  Fixture f = fig1a_fixture(1.0, 480.0);
  f.platform = testhelpers::simple_platform({{0, 1, 2}}, 3, /*card=*/500.0);
  Rng rng(1);
  const AllocationOutcome out =
      allocate(f.problem(), HeuristicKind::SubtreeBottomUp, rng);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("server-selection:"), std::string::npos);
}

TEST(Allocator, PaperDefaultPairsRandomWithRandomSelection) {
  // Contrived platform where random selection is very likely to overload:
  // two hosts for each heavy type, one of which is tiny.  Both policies
  // route the same Random placement; allocate() must take the random one.
  Fixture f = fig1a_fixture(1.0, 480.0);
  f.platform = testhelpers::simple_platform({{0, 1, 2}, {0, 1, 2}}, 3,
                                            /*card=*/1500.0);
  const Problem prob = f.problem();
  int random_failures = 0, three_loop_failures = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    PlacementState state(prob);
    ASSERT_TRUE(place_random(state, rng).success);
    Allocation rnd = state.to_allocation();
    Allocation tl = rnd;
    const bool rnd_ok = select_servers_random(prob, rnd, rng).success &&
                        check_allocation(prob, rnd).ok();
    const bool tl_ok = select_servers_three_loop(prob, tl).success &&
                       check_allocation(prob, tl).ok();
    Rng same(seed);
    EXPECT_EQ(allocate(prob, HeuristicKind::Random, same).success, rnd_ok)
        << "seed " << seed;
    random_failures += rnd_ok ? 0 : 1;
    three_loop_failures += tl_ok ? 0 : 1;
  }
  // The capacity-aware policy should not fail more often than the random
  // one, and the random one should fail at least occasionally here.
  EXPECT_LE(three_loop_failures, random_failures);
  EXPECT_GT(random_failures, 0);
}

TEST(Allocator, InvalidProblemRejected) {
  Problem p;  // all nulls
  Rng rng(1);
  const AllocationOutcome out = allocate(p, HeuristicKind::Random, rng);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("invalid"), std::string::npos);
}

TEST(Allocator, DeterministicGivenSeed) {
  const Fixture f = testhelpers::random_fixture(4, 30, 1.1);
  for (HeuristicKind k : all_heuristics()) {
    Rng r1(42), r2(42);
    const AllocationOutcome a = allocate(f.problem(), k, r1);
    const AllocationOutcome b = allocate(f.problem(), k, r2);
    ASSERT_EQ(a.success, b.success) << heuristic_name(k);
    if (a.success) {
      EXPECT_DOUBLE_EQ(a.cost, b.cost) << heuristic_name(k);
      EXPECT_EQ(a.allocation.op_to_proc, b.allocation.op_to_proc);
    }
  }
}

TEST(Allocator, DescribeMentionsEveryProcessor) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  Rng rng(1);
  const AllocationOutcome out =
      allocate(f.problem(), HeuristicKind::Random, rng);
  ASSERT_TRUE(out.success);
  const std::string desc = out.allocation.describe(f.problem());
  for (int u = 0; u < out.num_processors; ++u) {
    EXPECT_NE(desc.find("P" + std::to_string(u) + " "), std::string::npos);
  }
}

} // namespace
} // namespace insp
