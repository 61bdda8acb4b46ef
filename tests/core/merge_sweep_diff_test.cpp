// Differential test of merge_sweep's CPU pre-verdict: the production sweep
// and merge_sweep_probe_all (tests/oracles/), which probes every direction
// with try_place, run on copies of one state and must leave equal results,
// equal assignments and equal live-processor configurations.  States come
// from the six heuristics on random instances (swept to a fixpoint, as
// refine_placement's passes do) and from the dynamic engine mid-replay,
// where consolidation runs after every event.
#include <gtest/gtest.h>

#include <string>

#include "../test_helpers.hpp"
#include "bench_support/dynamic_world.hpp"
#include "core/local_search.hpp"
#include "core/strategy_registry.hpp"
#include "dynamic/repair_allocator.hpp"
#include "oracles/merge_sweep_reference.hpp"

namespace insp {
namespace {

struct Tally {
  int states = 0;
  long tried = 0;
  long failed = 0;
  long merges = 0;
};

// Sweeps copies of `state` with both sweeps and compares the outcomes.
// Returns the production sweep's state so callers can sweep on.
PlacementState expect_same_sweep(const PlacementState& state,
                                 const std::string& where, Tally& tally) {
  PlacementState fast = state;
  PlacementState ref = state;
  const MergeSweepResult got = merge_sweep(fast);
  const MergeSweepResult want = merge_sweep_probe_all(ref);
  EXPECT_EQ(got, want) << where;
  EXPECT_EQ(got.merges, got.tried - got.failed) << where;
  EXPECT_EQ(fast.live_processors(), ref.live_processors()) << where;
  for (int pid : fast.live_processors()) {
    EXPECT_TRUE(fast.config(pid) == ref.config(pid)) << where << " p" << pid;
    EXPECT_EQ(fast.ops_on(pid), ref.ops_on(pid)) << where << " p" << pid;
  }
  if (fast.num_unassigned() == 0 && ref.num_unassigned() == 0) {
    EXPECT_TRUE(fast.to_allocation() == ref.to_allocation()) << where;
  }
  ++tally.states;
  tally.tried += got.tried;
  tally.failed += got.failed;
  tally.merges += got.merges;
  return fast;
}

TEST(MergeSweepDiff, EqualsProbeAllAfterEveryHeuristic) {
  Tally tally;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const testhelpers::Fixture f = testhelpers::random_fixture(seed, 40, 1.3);
    for (HeuristicKind kind : all_heuristics()) {
      PlacementState state(f.problem());
      Rng rng(seed);
      if (!strategy_for(kind).place(state, rng).success) continue;
      const std::string where =
          std::string(heuristic_name(kind)) + " seed " + std::to_string(seed);
      // Sweep to a fixpoint, comparing on every intermediate state.
      for (int pass = 0; pass < 8; ++pass) {
        const int before = state.num_live_processors();
        state = expect_same_sweep(state, where + " pass " +
                                             std::to_string(pass), tally);
        if (state.num_live_processors() == before) break;
      }
    }
  }
  // Not vacuous: the states reach both merges and the failed pairs the
  // pre-verdict skips.
  EXPECT_GT(tally.merges, 0);
  EXPECT_GT(tally.failed, 0);
}

TEST(MergeSweepDiff, EqualsProbeAllMidReplay) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const benchx::DynamicWorld world =
        benchx::make_dynamic_world(seed, {400, 6, 25});
    DynamicAllocator engine(world.apps, world.platform, world.catalog);
    ASSERT_TRUE(engine.initialize(seed ^ 0x5eed).success) << seed;
    const std::string world_name = "world " + std::to_string(seed);
    expect_same_sweep(*engine.placement_state(), world_name + " initial",
                      tally);
    for (std::size_t e = 0; e < world.trace.events.size(); ++e) {
      engine.apply(world.trace.events[e], world.trace);
      if (const PlacementState* state = engine.placement_state()) {
        expect_same_sweep(*state, world_name + " event " + std::to_string(e),
                          tally);
      }
    }
  }
  EXPECT_GT(tally.states, 400);
  EXPECT_GT(tally.failed, 0);
}

} // namespace
} // namespace insp
