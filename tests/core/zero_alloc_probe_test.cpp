// Zero-allocation contract for the steady-state hot paths (docs/DESIGN.md
// §11): after one warmup pass has sized every persistent scratch buffer —
// the PlacementState group-lift arenas, the journal vectors, the flat link
// ledger, the repair scratch — further probes, hypothetical-purchase
// probes, group lift cycles, failed grouping calls, committed move
// ping-pongs, committed absorbs in both directions and repair-style
// first-fit scans must perform ZERO heap allocations.  The test compiles in the global counting operator new
// (tests/alloc_counter.hpp) and fails on any non-zero delta, so a
// reintroduced per-call temporary anywhere under these paths is caught
// exactly, not statistically.
#define INSP_DEFINE_COUNTING_ALLOCATOR
#include "../alloc_counter.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../test_helpers.hpp"
#include "core/placement_common.hpp"
#include "core/placement_state.hpp"
#include "util/rng.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::random_fixture;

/// Seats every operator somewhere (search_place where the probe refuses, so
/// even tight instances end up fully assigned) and returns the state ready
/// for steady-state probing.
PlacementState seated_state(const Fixture& f, int procs_to_buy) {
  PlacementState state(f.problem());
  const auto& configs = f.catalog.by_cost();
  for (int i = 0; i < procs_to_buy; ++i) {
    state.buy(configs[configs.size() - 1 - (i % 2)]);
  }
  const std::vector<int> live = state.live_processors();
  const int n_ops = f.tree.num_operators();
  for (int op = 0; op < n_ops; ++op) {
    if (!state.try_place(op, live[op % live.size()])) {
      state.search_place(op, live[op % live.size()]);
    }
  }
  return state;
}

template <typename Fn>
long long alloc_delta_over(Fn&& body) {
  const long long before = alloc_counter::allocations();
  body();
  return alloc_counter::allocations() - before;
}

TEST(ZeroAllocProbe, SteadyStateProbesDoNotAllocate) {
  const Fixture f = random_fixture(7, 24, 1.2);
  PlacementState state = seated_state(f, 4);
  const std::vector<int> live = state.live_processors();
  const int n_ops = f.tree.num_operators();

  std::vector<int> group = {0, 1, 2};
  auto probe_round = [&] {
    for (int op = 0; op < n_ops; ++op) {
      group[0] = op;
      for (int pid : live) {
        (void)state.can_place(op, pid);
        (void)state.can_place(group, pid);
      }
    }
  };

  // Warmup sizes every journal and snapshot buffer.
  probe_round();
  probe_round();

  const long long delta = alloc_delta_over(probe_round);
  EXPECT_EQ(delta, 0)
      << "steady-state probes allocated " << delta << " times";
}

TEST(ZeroAllocProbe, SteadyStateNewProcessorBatchProbesDoNotAllocate) {
  // can_place_on_new_batch: the grouping technique's "which configuration
  // could host this group on a fresh processor?" scan.
  const Fixture f = random_fixture(9, 24, 1.2);
  PlacementState state = seated_state(f, 4);
  const auto& configs = f.catalog.by_cost();
  const int n_ops = f.tree.num_operators();

  std::vector<unsigned char> verdicts;
  std::vector<int> group = {0, 1};
  long long feasible = 0;
  auto probe_round = [&] {
    for (int op = 0; op < n_ops; ++op) {
      group[0] = op;
      group[1] = (op + 1) % n_ops;
      state.can_place_on_new_batch(group, configs, verdicts);
      for (unsigned char v : verdicts) feasible += v;
    }
  };

  probe_round();
  probe_round();
  ASSERT_GT(feasible, 0) << "every hypothetical purchase was rejected";

  const long long delta = alloc_delta_over(probe_round);
  EXPECT_EQ(delta, 0)
      << "steady-state new-processor probes allocated " << delta << " times";
}

TEST(ZeroAllocProbe, GroupLiftCycleDoesNotAllocate) {
  // The grouping technique's lift: begin, add members one by one (each
  // re-judged against every configuration), end.
  const Fixture f = random_fixture(17, 24, 1.2);
  PlacementState state = seated_state(f, 4);
  const auto& configs = f.catalog.by_cost();
  const int n_ops = f.tree.num_operators();

  long long feasible = 0;
  auto lift_round = [&] {
    for (int seed = 0; seed < n_ops; ++seed) {
      state.begin_group_lift();
      state.lift_member(seed);
      for (int k = 0; k < 6; ++k) {
        for (unsigned char v :
             state.lifted_verdicts(configs.data(), configs.size())) {
          feasible += v;
        }
        MBps volume = 0.0;
        const int next = state.heaviest_group_neighbor(&volume);
        if (next == kNoNode) break;
        state.lift_member(next);
      }
      state.end_group_lift();
    }
  };

  lift_round();
  lift_round();
  ASSERT_GT(feasible, 0) << "every lifted group was rejected";

  const long long delta = alloc_delta_over(lift_round);
  EXPECT_EQ(delta, 0) << "group lift cycles allocated " << delta << " times";
}

TEST(ZeroAllocProbe, FailedGroupingCallDoesNotAllocate) {
  // alpha 2.5 with 30 MB objects: the whole tree exceeds the fastest CPU,
  // so every call grows the group to the whole tree, is rejected at each
  // step, and fails.
  const Fixture f = testhelpers::fig1a_fixture(2.5, 30.0);
  PlacementState state(f.problem());
  const int n_ops = f.tree.num_operators();

  auto failing_calls = [&] {
    for (int seed = 0; seed < n_ops; ++seed) {
      for (const GroupConfigPolicy policy :
           {GroupConfigPolicy::CheapestFirst,
            GroupConfigPolicy::MostExpensiveOnly}) {
        ASSERT_FALSE(place_with_grouping(state, seed, policy, nullptr));
      }
    }
  };

  failing_calls();
  failing_calls();
  ASSERT_EQ(state.num_live_processors(), 0);

  const long long delta = alloc_delta_over(failing_calls);
  EXPECT_EQ(delta, 0) << "failed grouping calls allocated " << delta
                      << " times";
}

TEST(ZeroAllocProbe, CommittedMovePingPongDoesNotAllocate) {
  const Fixture f = random_fixture(11, 20, 1.1);
  PlacementState state = seated_state(f, 4);
  const std::vector<int> live = state.live_processors();
  ASSERT_GE(live.size(), 2u);
  const int n_ops = f.tree.num_operators();

  // Find an operator that can actually bounce between two processors.
  int op = -1, a = -1, b = -1;
  for (int cand = 0; cand < n_ops && op < 0; ++cand) {
    for (std::size_t i = 0; i < live.size() && op < 0; ++i) {
      for (std::size_t j = 0; j < live.size(); ++j) {
        if (i == j) continue;
        if (state.try_place(cand, live[i]) &&
            state.try_place(cand, live[j])) {
          op = cand;
          a = live[i];
          b = live[j];
          break;
        }
      }
    }
  }
  if (op < 0) GTEST_SKIP() << "instance too tight for a movable operator";

  auto ping_pong = [&] {
    for (int r = 0; r < 50; ++r) {
      ASSERT_TRUE(state.try_place(op, a));
      ASSERT_TRUE(state.try_place(op, b));
    }
  };
  ping_pong();  // warmup: ledger capacity, journals, scratch
  const long long delta = alloc_delta_over(ping_pong);
  EXPECT_EQ(delta, 0)
      << "committed move ping-pong allocated " << delta << " times";
}

TEST(ZeroAllocProbe, CommittedAbsorbsDoNotAllocate) {
  // SBU's merge step in both directions.  Each cycle splits a few operators
  // off the big processor onto a freshly bought one (setup: a new slot's
  // vectors allocate), then measures only the absorb: the small side into
  // the big one (forward), or the big one into the small one (the slots
  // swap, so the union's buffers travel with it).
  const Fixture f = random_fixture(17, 24, 1.0);
  PlacementState state(f.problem());
  const ProcessorConfig top = f.catalog.by_cost().back();
  int big = state.buy(top);
  for (int op = 0; op < f.tree.num_operators(); ++op) {
    state.try_place(op, big);
  }
  ASSERT_GE(state.ops_on(big).size(), 8u);
  std::vector<int> split;
  long long measured = 0;
  const auto cycle = [&](bool swap_direction) {
    const int fresh = state.buy(top);
    const auto& on_big = state.ops_on(big);
    split.assign(on_big.begin(), on_big.begin() + 3);
    ASSERT_TRUE(state.try_place(split, fresh));
    ASSERT_GT(state.ops_on(big).size(), state.ops_on(fresh).size());
    if (swap_direction) {
      measured += alloc_delta_over(
          [&] { ASSERT_TRUE(state.try_absorb(big, fresh)); });
      big = fresh;
    } else {
      measured += alloc_delta_over(
          [&] { ASSERT_TRUE(state.try_absorb(fresh, big)); });
    }
  };
  for (int r = 0; r < 6; ++r) cycle(r % 2 == 0);  // warmup
  measured = 0;
  for (int r = 0; r < 20; ++r) cycle(r % 2 == 0);
  EXPECT_EQ(measured, 0) << "committed absorbs allocated " << measured
                         << " times";
}

TEST(ZeroAllocProbe, RepairStyleScanDoesNotAllocate) {
  const Fixture f = random_fixture(13, 24, 1.3);
  PlacementState state = seated_state(f, 3);
  const std::vector<int> live = state.live_processors();
  const int n_ops = f.tree.num_operators();

  std::vector<int> over_procs;
  std::vector<std::pair<int, int>> over_links;
  std::vector<int> cands;
  // Repair's first-fit: the probe over the candidates, stopping at the
  // first that accepts.
  const auto first_fit = [&](int op) {
    for (int q : cands) {
      if (state.can_place(op, q)) return q;
    }
    return kNoNode;
  };
  auto repair_scan = [&] {
    state.overloaded_processors(over_procs);
    state.overloaded_links(over_links);
    for (int pid : over_procs) {
      for (int op : state.ops_on(pid)) {
        double crossing = 0.0;
        state.visit_neighbors(op, [&](int nb, MBps volume) {
          const int q = state.proc_of(nb);
          if (q != kNoNode && q != pid) crossing += volume;
        });
        (void)crossing;
        cands.clear();
        for (int q : live) {
          if (q != pid) cands.push_back(q);
        }
        (void)first_fit(op);
      }
    }
    // The scan is only interesting if the instance is actually overloaded.
    for (int op = 0; op < n_ops; ++op) {
      cands.clear();
      for (int q : live) cands.push_back(q);
      (void)first_fit(op);
    }
  };

  repair_scan();
  repair_scan();
  const long long delta = alloc_delta_over(repair_scan);
  EXPECT_EQ(delta, 0)
      << "repair-style scan allocated " << delta << " times";
}

} // namespace
} // namespace insp
