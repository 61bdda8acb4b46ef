#include "core/placement_state.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/constraints.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::fig1a_fixture;

TEST(PlacementState, BuySellLifecycle) {
  const Fixture f = fig1a_fixture();
  const Problem p = f.problem();
  PlacementState st(p);
  EXPECT_EQ(st.num_live_processors(), 0);
  const int a = st.buy(f.catalog.cheapest());
  const int b = st.buy(f.catalog.most_expensive());
  EXPECT_TRUE(st.is_live(a));
  EXPECT_TRUE(st.is_live(b));
  EXPECT_EQ(st.num_live_processors(), 2);
  EXPECT_DOUBLE_EQ(st.total_cost(), 7548.0 + 18846.0);
  st.sell(a);
  EXPECT_FALSE(st.is_live(a));
  EXPECT_DOUBLE_EQ(st.total_cost(), 18846.0);
  EXPECT_EQ(st.live_processors(), std::vector<int>{b});
}

TEST(PlacementState, TryPlaceAssignsAndTracksLoads) {
  const Fixture f = fig1a_fixture(1.0, 10.0, 0.5);
  const Problem p = f.problem();
  PlacementState st(p);
  const int pid = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({4}, pid));  // n1: leaves o0 (10MB), o1 (20MB)
  EXPECT_EQ(st.proc_of(4), pid);
  EXPECT_EQ(st.num_unassigned(), 4);
  EXPECT_DOUBLE_EQ(st.cpu_demand(pid), 30.0);  // (10+20)^1
  // Downloads: o0 at 5 MB/s + o1 at 10 MB/s.
  EXPECT_DOUBLE_EQ(st.download_load(pid), 15.0);
  // No neighbors assigned: no comm yet.
  EXPECT_DOUBLE_EQ(st.comm_load(pid), 0.0);
}

TEST(PlacementState, DownloadsDeduplicatedPerProcessor) {
  const Fixture f = fig1a_fixture(1.0, 10.0, 0.5);
  const Problem p = f.problem();
  PlacementState st(p);
  const int pid = st.buy(f.catalog.most_expensive());
  // n1 (id 4) and n2 (id 3) both need o0: one download suffices.
  ASSERT_TRUE(st.try_place({4, 3}, pid));
  // Types on pid: o0 (5 MB/s), o1 (10 MB/s) — o0 counted once.
  EXPECT_DOUBLE_EQ(st.download_load(pid), 15.0);
}

TEST(PlacementState, CrossingEdgeChargedToBothAndLink) {
  const Fixture f = fig1a_fixture(1.0, 10.0, 0.5);
  const Problem p = f.problem();
  PlacementState st(p);
  const int a = st.buy(f.catalog.most_expensive());
  const int b = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({4}, a));  // n1
  ASSERT_TRUE(st.try_place({3}, b));  // n2 = parent of n1, edge 30 MB
  EXPECT_DOUBLE_EQ(st.comm_load(a), 30.0);
  EXPECT_DOUBLE_EQ(st.comm_load(b), 30.0);
  // Colocating removes the crossing charge.
  ASSERT_TRUE(st.try_place({4}, b));
  EXPECT_FALSE(st.is_live(a));  // emptied source sold automatically
  EXPECT_DOUBLE_EQ(st.comm_load(b), 0.0);
}

TEST(PlacementState, TryPlaceRejectsCpuOverload) {
  // alpha = 2.2 at size 10: root mass 90 -> w = 90^2.2 ~ 19,6k; n5 w = 40^2.2
  // Use large sizes to push the root beyond the fastest CPU.
  const Fixture f = fig1a_fixture(2.2, 30.0);
  const Problem p = f.problem();
  PlacementState st(p);
  const int pid = st.buy(f.catalog.most_expensive());
  // Root mass = 270 -> 270^2.2 ~ 221k Mops > 46,880.
  EXPECT_FALSE(st.try_place({0}, pid));
  EXPECT_EQ(st.proc_of(0), kNoNode);
  EXPECT_EQ(st.num_unassigned(), 5);
}

TEST(PlacementState, TryPlaceRejectsNicOverloadOnNeighbor) {
  // Tiny NIC catalog: crossing edges must fit both endpoints' cards.
  Fixture f = fig1a_fixture(0.5, 10.0);
  f.catalog = PriceCatalog(100.0, {{46880.0, 0.0}}, {{40.0, 0.0}});
  const Problem p = f.problem();
  PlacementState st(p);
  const int a = st.buy(f.catalog.cheapest());
  const int b = st.buy(f.catalog.cheapest());
  ASSERT_TRUE(st.try_place({4}, a));  // n1 downloads 15 MB/s
  // n2 on b: edge n1->n2 is 30 MB, nic b = 30 (edge) + 5 (o0 dl) > 40? No:
  // 35 fits; but nic a = 15 + 30 = 45 > 40 -> rejected.
  EXPECT_FALSE(st.try_place({3}, b));
  EXPECT_EQ(st.proc_of(3), kNoNode);
  // State unchanged: a still holds n1 with downloads only.
  EXPECT_DOUBLE_EQ(st.comm_load(a), 0.0);
}

TEST(PlacementState, TryPlaceRejectsLinkOverload) {
  // Link capacity below the edge volume: the pair can never be split.
  Fixture f = fig1a_fixture(0.5, 10.0);
  f.platform = testhelpers::simple_platform({{0, 1, 2}}, 3, 10000.0, 1000.0,
                                            /*link_pp=*/25.0);
  const Problem p = f.problem();
  PlacementState st(p);
  const int a = st.buy(f.catalog.most_expensive());
  const int b = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({4}, a));
  EXPECT_FALSE(st.try_place({3}, b));  // edge 30 > link 25
  ASSERT_TRUE(st.try_place({3}, a));   // co-location is fine
  EXPECT_DOUBLE_EQ(st.comm_load(a), 0.0);
}

TEST(PlacementState, MovingGroupBetweenProcessors) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  const Problem p = f.problem();
  PlacementState st(p);
  const int a = st.buy(f.catalog.most_expensive());
  const int b = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({4, 3}, a));
  ASSERT_TRUE(st.try_place({1, 0, 2}, b));
  // Move everything to b; a must be sold.
  ASSERT_TRUE(st.try_place({4, 3}, b));
  EXPECT_FALSE(st.is_live(a));
  EXPECT_EQ(st.num_unassigned(), 0);
  EXPECT_DOUBLE_EQ(st.comm_load(b), 0.0);
  EXPECT_EQ(st.ops_on(b).size(), 5u);
}

TEST(PlacementState, CanPlaceDoesNotMutate) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  const Problem p = f.problem();
  PlacementState st(p);
  const int a = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.can_place({4}, a));
  EXPECT_EQ(st.proc_of(4), kNoNode);
  EXPECT_EQ(st.num_unassigned(), 5);
  EXPECT_DOUBLE_EQ(st.cpu_demand(a), 0.0);
}

TEST(PlacementState, RhoScalesCpuAndCommDemand) {
  Fixture f = fig1a_fixture(1.0, 10.0);
  f.rho = 2.0;
  const Problem p = f.problem();
  PlacementState st(p);
  const int a = st.buy(f.catalog.most_expensive());
  const int b = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({4}, a));
  ASSERT_TRUE(st.try_place({3}, b));
  EXPECT_DOUBLE_EQ(st.cpu_demand(a), 60.0);   // 2 * 30
  EXPECT_DOUBLE_EQ(st.comm_load(a), 60.0);    // 2 * 30 MB edge
  // Downloads are rho-independent (QoS-driven).
  EXPECT_DOUBLE_EQ(st.download_load(a), 15.0);
}

TEST(PlacementState, ToAllocationCompactsAndSorts) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  const Problem p = f.problem();
  PlacementState st(p);
  const int a = st.buy(f.catalog.most_expensive());
  st.buy(f.catalog.cheapest());  // stays empty -> dropped
  const int c = st.buy(f.catalog.cheapest());
  ASSERT_TRUE(st.try_place({4, 3, 1}, a));
  ASSERT_TRUE(st.try_place({0, 2}, c));
  const Allocation alloc = st.to_allocation();
  ASSERT_EQ(alloc.num_processors(), 2);
  EXPECT_EQ(alloc.processors[0].ops, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(alloc.processors[1].ops, (std::vector<int>{0, 2}));
  EXPECT_EQ(alloc.op_to_proc[4], 0);
  EXPECT_EQ(alloc.op_to_proc[0], 1);
}

TEST(PlacementState, NeighborsReturnsParentAndChildrenWithVolumes) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  const Problem p = f.problem();
  PlacementState st(p);
  // n2 (id 3): parent n5 (id 1), child n1 (id 4).
  std::vector<std::pair<int, MBps>> nbs;
  st.visit_neighbors(3, [&](int nb, MBps volume) {
    nbs.emplace_back(nb, volume);
  });
  ASSERT_EQ(nbs.size(), 2u);
  EXPECT_EQ(nbs[0].first, 1);
  EXPECT_DOUBLE_EQ(nbs[0].second, 40.0);  // n2's own output to its parent
  EXPECT_EQ(nbs[1].first, 4);
  EXPECT_DOUBLE_EQ(nbs[1].second, 30.0);  // n1's output
}

TEST(PlacementState, IncrementalLoadsMatchGroundTruthChecker) {
  // Cross-validation: incremental accounting vs compute_processor_loads.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Fixture f = testhelpers::random_fixture(seed, 30, 1.1);
    const Problem p = f.problem();
    PlacementState st(p);
    Rng rng(seed);
    // Scatter ops over up to 6 processors arbitrarily (accepting only
    // feasible moves).
    std::vector<int> procs;
    for (int i = 0; i < 6; ++i) procs.push_back(st.buy(f.catalog.most_expensive()));
    for (int op = 0; op < f.tree.num_operators(); ++op) {
      for (int attempt = 0; attempt < 6; ++attempt) {
        const int pid = procs[rng.index(procs.size())];
        if (st.try_place({op}, pid)) break;
      }
      if (st.proc_of(op) == kNoNode) {
        ASSERT_TRUE(st.try_place({op}, procs[0]))
            << "op " << op << " could not be placed anywhere";
      }
    }
    const Allocation alloc = st.to_allocation();
    const auto loads = compute_processor_loads(p, alloc);
    // Map dense processor ids back to live state ids (same order).
    const auto live = st.live_processors();
    ASSERT_EQ(live.size(), loads.size());
    for (std::size_t u = 0; u < live.size(); ++u) {
      EXPECT_NEAR(st.cpu_demand(live[u]), loads[u].cpu_demand, 1e-6);
      EXPECT_NEAR(st.download_load(live[u]), loads[u].download, 1e-9);
      EXPECT_NEAR(st.comm_load(live[u]),
                  loads[u].comm_in + loads[u].comm_out, 1e-6);
    }
  }
}

// --- repair API (probes on degraded states, reconfigure, demand refresh) ---

namespace repairfix {

/// fig1a over a two-CPU catalog (speed 300 expensive / 100 cheap, one
/// 1000 MB/s NIC) so CPU overload scenarios are easy to stage.
testhelpers::Fixture small_catalog_fixture() {
  testhelpers::Fixture f{
      testhelpers::fig1a_tree(1.0, 10.0, 0.5),
      testhelpers::simple_platform({{0, 1, 2}, {0, 1, 2}}, 3),
      PriceCatalog(100.0, {{100.0, 0.0}, {300.0, 500.0}},
                   {{1000.0, 0.0}}),
      1.0,
  };
  return f;
}

/// Doubles every operator's demands and refreshes the state — the rho-fold
/// shape of a dynamic throughput increase.
void double_all_demands(OperatorTree& tree, PlacementState& st) {
  for (int op = 0; op < tree.num_operators(); ++op) {
    const MegaOps w = tree.op(op).work;
    const MegaBytes d = tree.op(op).output_mb;
    tree.set_demand(op, 2.0 * w, 2.0 * d);
    st.refresh_op_demand(op, w, d);
  }
}

} // namespace repairfix

TEST(PlacementStateRepair, RefreshOpDemandTracksMutatedTree) {
  testhelpers::Fixture f = repairfix::small_catalog_fixture();
  PlacementState st(f.problem());
  const int a = st.buy(f.catalog.most_expensive());
  const int b = st.buy(f.catalog.most_expensive());
  // Root (0) and n3 (2) on a; the chain n5,n2,n1 on b.
  ASSERT_TRUE(st.try_place({0, 2}, a));
  ASSERT_TRUE(st.try_place({1, 3, 4}, b));
  repairfix::double_all_demands(f.tree, st);

  // Oracle: a fresh state over the mutated tree with the same assignment.
  PlacementState fresh(f.problem());
  const int fa = fresh.buy(f.catalog.most_expensive());
  const int fb = fresh.buy(f.catalog.most_expensive());
  for (int op : {0, 2}) fresh.search_place(op, fa);
  for (int op : {1, 3, 4}) fresh.search_place(op, fb);

  EXPECT_NEAR(st.cpu_demand(a), fresh.cpu_demand(fa), 1e-9);
  EXPECT_NEAR(st.cpu_demand(b), fresh.cpu_demand(fb), 1e-9);
  EXPECT_NEAR(st.comm_load(a), fresh.comm_load(fa), 1e-9);
  EXPECT_NEAR(st.comm_load(b), fresh.comm_load(fb), 1e-9);
  EXPECT_NEAR(st.download_load(a), fresh.download_load(fa), 1e-9);
  EXPECT_NEAR(st.pair_traffic(a, b), fresh.pair_traffic(fa, fb), 1e-9);
}

TEST(PlacementStateRepair, RefreshObjectRateTracksMutatedCatalog) {
  testhelpers::Fixture f = repairfix::small_catalog_fixture();
  PlacementState st(f.problem());
  const int a = st.buy(f.catalog.most_expensive());
  const int b = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({0, 2}, a));   // n3 needs o1, o2
  ASSERT_TRUE(st.try_place({1, 3, 4}, b));  // n2/n1 need o0, o1
  // o1 (20 MB) from 0.5 Hz to 2 Hz: rate 10 -> 40 MB/s on both processors.
  const MBps old_rate = f.tree.catalog().type(1).rate();
  const MBps before_a = st.download_load(a);
  const MBps before_b = st.download_load(b);
  f.tree.mutable_catalog().set_type_frequency(1, 2.0);
  st.refresh_object_rate(1, old_rate);
  EXPECT_NEAR(st.download_load(a), before_a + 30.0, 1e-9);
  EXPECT_NEAR(st.download_load(b), before_b + 30.0, 1e-9);
}

TEST(PlacementStateRepair, OverloadedProcessorsReportsViolations) {
  testhelpers::Fixture f = repairfix::small_catalog_fixture();
  PlacementState st(f.problem());
  const int pid = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({0, 1, 2, 3, 4}, pid));  // total w = 250 <= 300
  EXPECT_TRUE(st.overloaded_processors().empty());
  repairfix::double_all_demands(f.tree, st);  // w = 500 > 300
  EXPECT_FALSE(st.feasible());
  EXPECT_EQ(st.overloaded_processors(), std::vector<int>{pid});
  EXPECT_TRUE(st.overloaded_links().empty());
}

TEST(PlacementStateRepair, RelaxedProbeDrainsOverloadedProcessor) {
  testhelpers::Fixture f = repairfix::small_catalog_fixture();
  PlacementState st(f.problem());
  const int a = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({0, 1, 2, 3, 4}, a));
  repairfix::double_all_demands(f.tree, st);  // a at w=500, speed 300

  const int b = st.buy(f.catalog.most_expensive());
  // One eviction leaves the source overloaded (500 - 180 = 320 > 300), but
  // its load shrinks and b stays within capacity: the probe accepts, and
  // the probe-only form agrees and changes nothing.
  EXPECT_TRUE(st.can_place({0}, b));
  EXPECT_EQ(st.proc_of(0), a);
  EXPECT_NEAR(st.cpu_demand(a), 500.0, 1e-9);
  EXPECT_TRUE(st.try_place({0}, b));
  EXPECT_FALSE(st.feasible());  // a still at 320
  // Moving the root back would grow a's excess again: refused.
  EXPECT_FALSE(st.can_place({0}, a));
  // A second eviction (n3, w=100) restores feasibility.
  EXPECT_TRUE(st.try_place({2}, b));
  EXPECT_TRUE(st.feasible());
  EXPECT_TRUE(st.overloaded_processors().empty());
}

TEST(PlacementStateRepair, RelaxedProbeRejectsNewViolation) {
  testhelpers::Fixture f = repairfix::small_catalog_fixture();
  PlacementState st(f.problem());
  const int a = st.buy(f.catalog.most_expensive());
  ASSERT_TRUE(st.try_place({0, 1, 2, 3, 4}, a));
  repairfix::double_all_demands(f.tree, st);
  // Root now has w=180 > 100: the cheap CPU cannot host it, and the
  // verdict must not trade one violation for a new one.
  const int weak = st.buy(f.catalog.cheapest());
  EXPECT_FALSE(st.try_place({0}, weak));
  // The probe rolled back: the weak processor is still empty.
  EXPECT_TRUE(st.ops_on(weak).empty());
  EXPECT_EQ(st.proc_of(0), a);
}

TEST(PlacementStateRepair, TryReconfigureSwapsConfigWhenLoadsFit) {
  testhelpers::Fixture f = repairfix::small_catalog_fixture();
  PlacementState st(f.problem());
  const int pid = st.buy(f.catalog.cheapest());  // speed 100
  ASSERT_TRUE(st.try_place({4}, pid));           // n1: w = 30
  const Dollars before = st.total_cost();
  EXPECT_TRUE(st.try_reconfigure(pid, f.catalog.most_expensive()));
  EXPECT_EQ(st.config(pid).cpu, f.catalog.most_expensive().cpu);
  EXPECT_GT(st.total_cost(), before);

  // Upgrade a processor whose loads outgrew it (the repair path), and
  // refuse a downgrade below the current load.
  testhelpers::Fixture g = repairfix::small_catalog_fixture();
  PlacementState st2(g.problem());
  const int q = st2.buy(g.catalog.most_expensive());
  ASSERT_TRUE(st2.try_place({0, 1, 2, 3, 4}, q));  // w = 250 > 100
  EXPECT_FALSE(st2.try_reconfigure(q, g.catalog.cheapest()));
  EXPECT_EQ(st2.config(q).cpu, g.catalog.most_expensive().cpu);
}

} // namespace
} // namespace insp
