// Per-heuristic behavioral tests on controlled instances, plus the grouping
// helper.  End-to-end pipeline properties live in the integration suite.
#include "core/placement_heuristics.hpp"

#include <gtest/gtest.h>

#include <set>

#include "../test_helpers.hpp"
#include "core/allocator.hpp"
#include "core/placement_common.hpp"
#include "oracles/ablation_variants.hpp"
#include "tree/tree_stats.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;
using testhelpers::fig1a_fixture;

void expect_all_assigned(const PlacementState& st, const Fixture& f) {
  EXPECT_EQ(st.num_unassigned(), 0);
  for (int op = 0; op < f.tree.num_operators(); ++op) {
    EXPECT_NE(st.proc_of(op), kNoNode) << "op " << op;
  }
  EXPECT_TRUE(st.feasible());
}

// ---------------------------------------------------------------------------
// place_with_grouping
// ---------------------------------------------------------------------------

TEST(Grouping, SingleOpOnCheapestConfig) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState st(f.problem());
  std::string why;
  const auto pid =
      place_with_grouping(st, 4, GroupConfigPolicy::CheapestFirst, &why);
  ASSERT_TRUE(pid.has_value()) << why;
  EXPECT_DOUBLE_EQ(f.catalog.cost(st.config(*pid)), 7548.0);
  EXPECT_EQ(st.proc_of(4), *pid);
}

TEST(Grouping, MostExpensivePolicyBuysTopConfig) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState st(f.problem());
  std::string why;
  const auto pid =
      place_with_grouping(st, 4, GroupConfigPolicy::MostExpensiveOnly, &why);
  ASSERT_TRUE(pid.has_value()) << why;
  EXPECT_DOUBLE_EQ(f.catalog.cost(st.config(*pid)), 18846.0);
}

TEST(Grouping, PullsNeighborAcrossUncrossableEdge) {
  // Link 25 MB/s < every edge: any two adjacent ops must co-locate, so
  // placing n2 after n1 is assigned must pull n1 in.
  Fixture f = fig1a_fixture(1.0, 10.0);
  f.platform = testhelpers::simple_platform({{0, 1, 2}}, 3, 10000.0, 1000.0,
                                            /*link_pp=*/25.0);
  PlacementState st(f.problem());
  std::string why;
  const auto p1 =
      place_with_grouping(st, 4, GroupConfigPolicy::CheapestFirst, &why);
  ASSERT_TRUE(p1.has_value());
  const auto p2 =
      place_with_grouping(st, 3, GroupConfigPolicy::CheapestFirst, &why);
  ASSERT_TRUE(p2.has_value()) << why;
  // n1 was pulled onto n2's processor; the old one was sold.
  EXPECT_EQ(st.proc_of(4), *p2);
  EXPECT_FALSE(st.is_live(*p1));
}

TEST(Grouping, FailsWhenWholeTreeExceedsEveryProcessor) {
  // alpha huge: even the full group exceeds the fastest CPU.
  const Fixture f = fig1a_fixture(2.5, 30.0);
  PlacementState st(f.problem());
  std::string why;
  const auto pid =
      place_with_grouping(st, 0, GroupConfigPolicy::CheapestFirst, &why);
  EXPECT_FALSE(pid.has_value());
  EXPECT_FALSE(why.empty());
  EXPECT_EQ(st.num_live_processors(), 0);  // failed purchases rolled back
}

TEST(Grouping, EqualVolumeNeighborsJoinSmallerIdFirst) {
  // Root n0 with children n1, n2, each reading one 100 MB object at 0.5 Hz
  // (download 50 MB/s; both edges into n0 carry 100 MB/s).  One processor
  // model with a 175 MB/s NIC: n1 and n2 sit alone on their own processors,
  // n0 alone would ship 200 MB/s and cannot fit, while n0 plus either
  // child needs 50 + 100.  The tie between n1 and n2 goes to the smaller id.
  ObjectCatalog objects({{0, 100.0, 0.5}});
  TreeBuilder b(objects);
  const int root = b.add_operator(kNoNode);
  const int n1 = b.add_operator(root);
  const int n2 = b.add_operator(root);
  b.add_leaf(n1, 0);
  b.add_leaf(n2, 0);
  const Fixture f{b.build(1.0),
                  testhelpers::simple_platform({{0}}, 1),
                  PriceCatalog::homogeneous(CpuModel{1e6, 0.0},
                                            NicModel{175.0, 0.0}, 1.0),
                  1.0};
  PlacementState st(f.problem());
  const int p1 = st.buy(f.catalog.cheapest());
  const int p2 = st.buy(f.catalog.cheapest());
  ASSERT_TRUE(st.try_place(n1, p1));
  ASSERT_TRUE(st.try_place(n2, p2));
  std::string why;
  const auto pid =
      place_with_grouping(st, root, GroupConfigPolicy::CheapestFirst, &why);
  ASSERT_TRUE(pid.has_value()) << why;
  EXPECT_EQ(st.proc_of(root), *pid);
  EXPECT_EQ(st.proc_of(n1), *pid);
  EXPECT_EQ(st.proc_of(n2), p2);
  EXPECT_FALSE(st.is_live(p1));  // emptied by the move and sold

  // The rule is the id, not the visiting order: with {n2, n0} lifted, n1
  // (reached through n0) beats n3 (reached first, through n2).
  ObjectCatalog objects2({{0, 100.0, 0.5}});
  TreeBuilder b2(objects2);
  const int r = b2.add_operator(kNoNode);  // 0
  const int a = b2.add_operator(r);        // 1
  const int c = b2.add_operator(r);        // 2
  const int d = b2.add_operator(c);        // 3
  b2.add_leaf(a, 0);
  b2.add_leaf(d, 0);
  const Fixture g{b2.build(1.0), testhelpers::simple_platform({{0}}, 1),
                  PriceCatalog::paper_default(), 1.0};
  PlacementState st2(g.problem());
  st2.begin_group_lift();
  st2.lift_member(c);
  MBps volume = 0.0;
  EXPECT_EQ(st2.heaviest_group_neighbor(&volume), r);  // r (0) vs d (3)
  st2.lift_member(r);
  EXPECT_EQ(st2.heaviest_group_neighbor(&volume), a);  // a (1) vs d (3)
  EXPECT_EQ(volume, 100.0);
  st2.end_group_lift();
}

TEST(Grouping, ParallelEdgesCompareTheirLargestVolume) {
  // n1 feeds n0 over two parallel edges (deltas d1, d2) and reads child n2
  // (output y).  The frontier of {n1} ranks n0 by max(d1, d2): neither the
  // first, the last nor the sum of the parallel edges.
  const auto pick = [](MegaBytes d1, MegaBytes d2, MegaBytes y) {
    std::vector<OperatorNode> ops(3);
    for (int i = 0; i < 3; ++i) ops[static_cast<std::size_t>(i)].id = i;
    ops[0].children = {1, 1};
    ops[0].work = 1.0;
    ops[1].out = {OutEdge{0, d1}, OutEdge{0, d2}};
    ops[1].children = {2};
    ops[1].work = 1.0;
    ops[1].output_mb = std::max(d1, d2);
    ops[2].out = {OutEdge{1, y}};
    ops[2].leaves = {0};
    ops[2].work = 1.0;
    ops[2].output_mb = y;
    Fixture f{OperatorTree(std::move(ops), {LeafRef{0, 2}}, 0,
                           ObjectCatalog({{0, 1.0, 0.5}})),
              testhelpers::simple_platform({{0}}, 1),
              PriceCatalog::paper_default(), 1.0};
    EXPECT_FALSE(f.tree.validate().has_value());
    PlacementState st(f.problem());
    st.begin_group_lift();
    st.lift_member(1);
    MBps volume = 0.0;
    const int next = st.heaviest_group_neighbor(&volume);
    st.end_group_lift();
    return std::make_pair(next, volume);
  };
  EXPECT_EQ(pick(5.0, 30.0, 20.0), std::make_pair(0, 30.0));   // not first
  EXPECT_EQ(pick(30.0, 5.0, 20.0), std::make_pair(0, 30.0));   // not last
  EXPECT_EQ(pick(5.0, 30.0, 32.0), std::make_pair(2, 32.0));   // not sum
}

TEST(Grouping, OpsByWorkDescOrdering) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  const auto order = ops_by_work_desc(f.tree);
  ASSERT_EQ(order.size(), 5u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(f.tree.op(order[i - 1]).work, f.tree.op(order[i]).work);
  }
  EXPECT_EQ(order.front(), 0);  // root has the largest mass
}

// ---------------------------------------------------------------------------
// Individual heuristics
// ---------------------------------------------------------------------------

class EveryHeuristic : public testing::TestWithParam<HeuristicKind> {};

TEST_P(EveryHeuristic, AssignsAllOperatorsOnEasyInstance) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  Rng rng(7);
  PlacementState state(f.problem());
  const PlacementOutcome out = strategy_for(GetParam()).place(state, rng);
  ASSERT_TRUE(out.success) << out.failure_reason;
  expect_all_assigned(state, f);
}

TEST_P(EveryHeuristic, FailsCleanlyOnImpossibleInstance) {
  // Root operator alone exceeds the fastest CPU: nothing can work.
  const Fixture f = fig1a_fixture(2.5, 30.0);
  PlacementState state(f.problem());
  Rng rng(7);
  const PlacementOutcome out = strategy_for(GetParam()).place(state, rng);
  EXPECT_FALSE(out.success);
  EXPECT_FALSE(out.failure_reason.empty());
}

INSTANTIATE_TEST_SUITE_P(AllSix, EveryHeuristic,
                         testing::ValuesIn(all_heuristics()),
                         [](const auto& info) {
                           std::string n = heuristic_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(CompGreedy, PacksEverythingOntoOneProcessorWhenItFits) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(1);
  ASSERT_TRUE(place_comp_greedy(state, rng).success);
  EXPECT_EQ(state.num_live_processors(), 1);
}

TEST(CompGreedy, SplitsWhenCpuForcesIt) {
  // Root w must be near the CPU cap so the rest cannot join.
  const Fixture f = fig1a_fixture(1.95, 30.0);  // 270^1.95 ~ 55k > max CPU?
  // 270^1.95 = e^(1.95*5.6) ~ 5.6e4 > 46880 -> infeasible; use 1.9: 41.5k.
  const Fixture f2 = fig1a_fixture(1.9, 30.0);
  PlacementState state(f2.problem());
  Rng rng(1);
  ASSERT_TRUE(place_comp_greedy(state, rng).success);
  EXPECT_GE(state.num_live_processors(), 2);
}

TEST(SubtreeBottomUp, ConsolidatesToSingleProcessorOnEasyInstance) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(1);
  ASSERT_TRUE(place_subtree_bottom_up(state, rng).success);
  EXPECT_EQ(state.num_live_processors(), 1);
}

TEST(SubtreeBottomUp, CoalesceAblationKeepsMoreProcessors) {
  const Fixture f = testhelpers::random_fixture(3, 40, 0.9);
  Rng r1(1), r2(1);
  PlacementState with(f.problem()), without(f.problem());
  ASSERT_TRUE(place_subtree_bottom_up(with, r1).success);
  ASSERT_TRUE(place_subtree_bottom_up_no_coalesce(without, r2).success);
  EXPECT_LE(with.num_live_processors(), without.num_live_processors());
  EXPECT_LE(with.total_cost(), without.total_cost());
}

TEST(Random, OneProcessorPerOperatorWhenNothingBinds) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(123);
  ASSERT_TRUE(place_random(state, rng).success);
  // Every op its own cheapest processor (no grouping needed here).
  EXPECT_EQ(state.num_live_processors(), 5);
  EXPECT_DOUBLE_EQ(state.total_cost(), 5 * 7548.0);
}

TEST(Random, DifferentSeedsCanDifferEasySeedStillSucceeds) {
  const Fixture f = testhelpers::random_fixture(11, 20, 0.9);
  PlacementState s1(f.problem()), s2(f.problem());
  Rng r1(1), r2(2);
  ASSERT_TRUE(place_random(s1, r1).success);
  ASSERT_TRUE(place_random(s2, r2).success);
  // Same instance, both valid; order of purchases may differ but counts are
  // equal here because every op gets its own processor.
  EXPECT_EQ(s1.num_live_processors(), s2.num_live_processors());
}

TEST(CommGreedy, ColocatesLargestEdgeFirst) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(1);
  ASSERT_TRUE(place_comm_greedy(state, rng).success);
  // Largest edge is n3->n4 (50 MB): endpoints must share a processor.
  EXPECT_EQ(state.proc_of(2), state.proc_of(0));
}

TEST(ObjectGrouping, CoLocatesSharersOfPopularObjects) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(1);
  ASSERT_TRUE(place_object_grouping(state, rng).success);
  // n2 (id 3) and n1 (id 4) share o0; n1 and n3 share o1.  The seed with the
  // highest popularity sum is n1 (o0:2 + o1:2 = 4); both sharers join it.
  EXPECT_EQ(state.proc_of(4), state.proc_of(3));
  EXPECT_EQ(state.proc_of(4), state.proc_of(2));
}

TEST(ObjectAvailability, ProcessesRarestTypesFirst) {
  Fixture f = fig1a_fixture(1.0, 10.0);
  // o2 on one server (availability 1), o0/o1 on two.
  f.platform = testhelpers::simple_platform({{0, 1}, {0, 1, 2}}, 3);
  PlacementState state(f.problem());
  Rng rng(1);
  ASSERT_TRUE(place_object_availability(state, rng).success);
  expect_all_assigned(state, f);
}

TEST(AblationRandomPairGrouping, MatchesIteratedOnEasyInstance) {
  const Fixture f = fig1a_fixture(1.0, 10.0);
  PlacementState state(f.problem());
  Rng rng(123);
  ASSERT_TRUE(place_random_pair_grouping(state, rng).success);
  EXPECT_EQ(state.num_live_processors(), 5);
}

} // namespace
} // namespace insp
