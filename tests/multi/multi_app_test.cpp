#include "multi/multi_app.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/constraints.hpp"
#include "sim/event_sim.hpp"
#include "sim/flow_analyzer.hpp"

namespace insp {
namespace {

using testhelpers::fig1a_tree;
using testhelpers::simple_platform;

std::vector<ApplicationSpec> two_apps(double rho1 = 1.0, double rho2 = 1.0) {
  std::vector<ApplicationSpec> apps;
  apps.push_back({fig1a_tree(1.0, 10.0), rho1});
  apps.push_back({fig1a_tree(1.0, 10.0), rho2});
  return apps;
}

TEST(CombineApplications, ForestShapeAndOffsets) {
  const auto apps = two_apps();
  const CombinedApplication c = combine_applications(apps);
  EXPECT_EQ(c.forest.num_operators(), 10);
  EXPECT_EQ(c.forest.num_leaves(), 10);
  ASSERT_EQ(c.forest.roots().size(), 2u);
  EXPECT_TRUE(c.forest.is_forest());
  EXPECT_FALSE(c.forest.validate().has_value());
  EXPECT_EQ(c.op_offset_of_app, (std::vector<int>{0, 5}));
  EXPECT_EQ(c.root_of_app, (std::vector<int>{0, 5}));
}

TEST(CombineApplications, FoldsThroughputIntoDemands) {
  const auto apps = two_apps(1.0, 2.5);
  const CombinedApplication c = combine_applications(apps);
  for (int op = 0; op < 5; ++op) {
    EXPECT_DOUBLE_EQ(c.forest.op(op).work, apps[0].tree.op(op).work);
    EXPECT_DOUBLE_EQ(c.forest.op(op + 5).work,
                     2.5 * apps[1].tree.op(op).work);
    EXPECT_DOUBLE_EQ(c.forest.op(op + 5).output_mb,
                     2.5 * apps[1].tree.op(op).output_mb);
  }
}

TEST(CombineApplications, RejectsMismatchedCatalogs) {
  std::vector<ApplicationSpec> apps;
  apps.push_back({fig1a_tree(1.0, 10.0), 1.0});
  apps.push_back({fig1a_tree(1.0, 12.0), 1.0});  // different object sizes
  EXPECT_THROW(combine_applications(apps), std::invalid_argument);
}

TEST(CombineApplications, RejectsBadInput) {
  EXPECT_THROW(combine_applications({}), std::invalid_argument);
  std::vector<ApplicationSpec> apps;
  apps.push_back({fig1a_tree(), 0.0});
  EXPECT_THROW(combine_applications(apps), std::invalid_argument);
}

TEST(MultiApp, JointAllocationIsValidAndServesBothRoots) {
  const auto apps = two_apps();
  const CombinedApplication c = combine_applications(apps);
  const Platform platform = simple_platform({{0, 1, 2}, {0, 1, 2}}, 3);
  const PriceCatalog catalog = PriceCatalog::paper_default();

  Rng rng(5);
  const AllocationOutcome out = allocate_joint(
      c, platform, catalog, HeuristicKind::SubtreeBottomUp, rng);
  ASSERT_TRUE(out.success) << out.failure_reason;

  Problem prob;
  prob.tree = &c.forest;
  prob.platform = &platform;
  prob.catalog = &catalog;
  prob.rho = 1.0;
  EXPECT_TRUE(check_allocation(prob, out.allocation).ok());

  const EventSimResult sim = simulate_allocation(prob, out.allocation);
  EXPECT_TRUE(sim.sustained) << sim.achieved_throughput;
  // Both roots produced results: total over roots exceeds one root's share.
  EXPECT_GT(sim.results_produced, 400);
}

TEST(MultiApp, JointNeverCostsMoreThanSeparateForSBU) {
  // Sharing processors cannot hurt a consolidating heuristic: the joint
  // forest admits every separate solution.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng gen(seed);
    TreeGenConfig cfg;
    cfg.num_operators = 15;
    cfg.alpha = 1.0;
    ObjectCatalog objects = ObjectCatalog::random(gen, 15, 5.0, 30.0, 0.5);
    std::vector<ApplicationSpec> apps;
    apps.push_back({generate_random_tree(gen, cfg, objects), 1.0});
    apps.push_back({generate_random_tree(gen, cfg, objects), 1.0});
    apps.push_back({generate_random_tree(gen, cfg, objects), 1.0});
    ServerDistConfig dist;
    const Platform platform = make_paper_platform(gen, dist);
    const PriceCatalog catalog = PriceCatalog::paper_default();

    Rng r1(7), r2(7);
    const CombinedApplication c = combine_applications(apps);
    const AllocationOutcome joint = allocate_joint(
        c, platform, catalog, HeuristicKind::SubtreeBottomUp, r1);
    const SeparateAllocationOutcome separate = allocate_separate(
        apps, platform, catalog, HeuristicKind::SubtreeBottomUp, r2);
    if (!joint.success || !separate.success) continue;
    EXPECT_LE(joint.cost, separate.total_cost + 1e-9) << "seed " << seed;
  }
}

TEST(MultiApp, HigherPerAppThroughputRaisesDemand) {
  const auto apps_lo = two_apps(1.0, 1.0);
  const auto apps_hi = two_apps(1.0, 4.0);
  const CombinedApplication lo = combine_applications(apps_lo);
  const CombinedApplication hi = combine_applications(apps_hi);
  const Platform platform = simple_platform({{0, 1, 2}, {0, 1, 2}}, 3);
  const PriceCatalog catalog = PriceCatalog::paper_default();

  Problem plo, phi;
  plo.tree = &lo.forest;
  phi.tree = &hi.forest;
  plo.platform = phi.platform = &platform;
  plo.catalog = phi.catalog = &catalog;

  Rng r1(3), r2(3);
  const auto out_lo =
      allocate(plo, HeuristicKind::CompGreedy, r1);
  const auto out_hi =
      allocate(phi, HeuristicKind::CompGreedy, r2);
  ASSERT_TRUE(out_lo.success && out_hi.success);
  // Demands folded: the high-throughput combination costs at least as much.
  EXPECT_GE(out_hi.cost + 1e-9, out_lo.cost);
}

TEST(MultiApp, SeparateReportsFailingApplication) {
  std::vector<ApplicationSpec> apps;
  apps.push_back({fig1a_tree(1.0, 10.0), 1.0});
  apps.push_back({fig1a_tree(2.5, 30.0), 1.0});  // infeasible root op
  const Platform platform = simple_platform({{0, 1, 2}}, 3);
  const PriceCatalog catalog = PriceCatalog::paper_default();
  Rng rng(1);
  const SeparateAllocationOutcome out = allocate_separate(
      apps, platform, catalog, HeuristicKind::CompGreedy, rng);
  EXPECT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("application 1"), std::string::npos);
}

TEST(MultiApp, ForestFlowAnalysisCoversAllApplications) {
  const auto apps = two_apps();
  const CombinedApplication c = combine_applications(apps);
  const Platform platform = simple_platform({{0, 1, 2}}, 3);
  const PriceCatalog catalog = PriceCatalog::paper_default();
  Rng rng(2);
  const AllocationOutcome out = allocate_joint(
      c, platform, catalog, HeuristicKind::CommGreedy, rng);
  ASSERT_TRUE(out.success) << out.failure_reason;
  Problem prob;
  prob.tree = &c.forest;
  prob.platform = &platform;
  prob.catalog = &catalog;
  const FlowAnalysis flow = analyze_flow(prob, out.allocation);
  EXPECT_GE(flow.max_throughput, 1.0 - 1e-9);
}

} // namespace
} // namespace insp
