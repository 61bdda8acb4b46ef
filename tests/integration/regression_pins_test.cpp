// Regression pins: exact end-to-end outputs for fixed seeds.  The
// (seed, config) -> instance mapping and every heuristic are fully
// deterministic, so these values must never drift silently — any
// intentional behavior change has to update them consciously.
#include <gtest/gtest.h>

#include <map>

#include "bench_support/experiment.hpp"
#include "core/placement_heuristics.hpp"
#include "core/placement_state.hpp"
#include "dynamic/replay_signature.hpp"
#include "harness/reporting.hpp"

namespace insp {
namespace {

InstanceConfig pinned_cfg(int n, double alpha) {
  InstanceConfig cfg;
  cfg.tree.num_operators = n;
  cfg.tree.alpha = alpha;
  cfg.tree.num_object_types = 15;
  cfg.tree.object_size_lo = 5.0;
  cfg.tree.object_size_hi = 30.0;
  cfg.tree.download_freq = 0.5;
  cfg.servers.num_servers = 6;
  return cfg;
}

struct Pin {
  HeuristicKind heuristic;
  double cost;
  int processors;
};

TEST(RegressionPins, InstanceShapeSeed424242) {
  const Instance inst = make_instance(424242, pinned_cfg(40, 1.3));
  EXPECT_EQ(inst.tree().num_operators(), 40);
  EXPECT_EQ(inst.tree().num_leaves(), 20);
  const auto& root = inst.tree().op(inst.tree().root());
  EXPECT_NEAR(root.output_mb, 378.3585396806, 1e-6);
  EXPECT_NEAR(root.work, 2245.3011705123, 1e-6);
}

TEST(RegressionPins, AllHeuristicsSeed424242) {
  const Instance inst = make_instance(424242, pinned_cfg(40, 1.3));
  const Problem prob = inst.problem();

  // Pinned outcomes (cost, processor count) for rng seed 7.
  const std::map<HeuristicKind, Pin> pins = {
      {HeuristicKind::Random, {HeuristicKind::Random, 192245.0, 25}},
      {HeuristicKind::CompGreedy, {HeuristicKind::CompGreedy, 9098.0, 1}},
      {HeuristicKind::CommGreedy, {HeuristicKind::CommGreedy, 17444.0, 2}},
      {HeuristicKind::SubtreeBottomUp,
       {HeuristicKind::SubtreeBottomUp, 9098.0, 1}},
      {HeuristicKind::ObjectGrouping,
       {HeuristicKind::ObjectGrouping, 33737.0, 4}},
      {HeuristicKind::ObjectAvailability,
       {HeuristicKind::ObjectAvailability, 73080.0, 9}},
  };

  for (HeuristicKind k : all_heuristics()) {
    Rng rng(7);
    const AllocationOutcome out = allocate(prob, k, rng);
    ASSERT_TRUE(out.success) << heuristic_name(k) << ": "
                             << out.failure_reason;
    const auto it = pins.find(k);
    ASSERT_NE(it, pins.end());
    EXPECT_NEAR(out.cost, it->second.cost, 0.5)
        << heuristic_name(k) << " cost drifted (got " << out.cost << ")";
    EXPECT_EQ(out.num_processors, it->second.processors)
        << heuristic_name(k) << " processor count drifted";
  }
}

TEST(RegressionPins, HighAlphaSeed99InstanceIsInfeasible) {
  // seed 99 at (N=60, alpha=1.7) draws a tree whose root operator exceeds
  // every CPU: pinned as a failure (the paper's feasibility cliff).
  const Instance inst = make_instance(99, pinned_cfg(60, 1.7));
  Rng rng(3);
  const AllocationOutcome out =
      allocate(inst.problem(), HeuristicKind::CompGreedy, rng);
  ASSERT_FALSE(out.success);
  EXPECT_NE(out.failure_reason.find("placement"), std::string::npos);
}

TEST(RegressionPins, HighAlphaSeed100Feasible) {
  const Instance inst = make_instance(100, pinned_cfg(60, 1.7));
  Rng rng(3);
  const AllocationOutcome out =
      allocate(inst.problem(), HeuristicKind::CompGreedy, rng);
  ASSERT_TRUE(out.success) << out.failure_reason;
  EXPECT_NEAR(out.cost, 67636.0, 0.5) << "got " << out.cost;
  EXPECT_EQ(out.num_processors, 4);
}

TEST(RegressionPins, SubtreeBottomUpPlansSweep) {
  // allocate(SBU) over paper §5 instances: N in {20, 50, 100, 200, 400} at
  // alpha 0.9 plus N = 80 at alpha 1.7 (next to the feasibility cliff), 17
  // seeds each.  The digest covers every success flag and every successful
  // Allocation in full (configurations, operator lists, download routes,
  // op_to_proc), so any change to which operators SBU groups, which
  // configuration it buys or how the pipeline downgrades and routes them
  // moves it.
  const std::vector<std::pair<int, double>> classes = {
      {20, 0.9}, {50, 0.9}, {100, 0.9}, {200, 0.9}, {400, 0.9}, {80, 1.7}};
  ReplaySignature digest;
  int successes = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (int i = 0; i < 17; ++i) {
      const std::uint64_t seed = 5000 + 100 * c + static_cast<std::uint64_t>(i);
      const Instance inst =
          make_instance(seed, pinned_cfg(classes[c].first, classes[c].second));
      Rng rng(seed);
      const AllocationOutcome out =
          allocate(inst.problem(), HeuristicKind::SubtreeBottomUp, rng);
      digest.mix(out.success ? 1 : 0);
      if (!out.success) continue;
      ++successes;
      digest.mix_allocation(out.allocation);
    }
  }
  EXPECT_EQ(successes, 85);
  EXPECT_EQ(hex16(digest.h), "29dd2f8b38b9d7b1");
}

TEST(RegressionPins, SubtreeBottomUpRawPlacementsOnTightInstances) {
  // SBU's placement itself — live processor ids and every op list in order —
  // on 3000 small random trees and shared-subexpression DAGs made tight
  // (objects up to 250 MB, rho up to 3): about a third fail, and merge
  // steps fail often enough that phase 2's retries change some plans.
  ReplaySignature digest;
  int successes = 0;
  for (int s = 0; s < 3000; ++s) {
    Rng rng(1000 + static_cast<std::uint64_t>(s));
    TreeGenConfig cfg;
    cfg.num_operators = 10 + static_cast<int>(rng.index(60));
    const double alphas[] = {0.9, 1.1, 1.3, 1.5, 1.7};
    cfg.alpha = alphas[rng.index(5)];
    cfg.num_object_types = 15;
    cfg.object_size_lo = 5.0;
    const double size_hi[] = {30.0, 60.0, 120.0, 250.0};
    cfg.object_size_hi = size_hi[rng.index(4)];
    cfg.download_freq = 0.5;
    const bool dag = rng.index(3) == 0;
    const OperatorTree tree = dag ? generate_shared_dag(rng, cfg, 0.3)
                                  : generate_random_tree(rng, cfg);
    ServerDistConfig dist;
    dist.num_servers = 6;
    dist.num_object_types = 15;
    const Platform platform = make_paper_platform(rng, dist);
    const PriceCatalog catalog = PriceCatalog::paper_default();
    const double rhos[] = {0.5, 1.0, 2.0, 3.0};
    const Problem problem{&tree, &platform, &catalog, rhos[rng.index(4)]};
    PlacementState state(problem);
    Rng placement_rng(1);
    const bool ok = place_subtree_bottom_up(state, placement_rng).success;
    digest.mix(ok ? 1 : 0);
    if (!ok) continue;
    ++successes;
    for (int pid : state.live_processors()) {
      digest.mix(pid);
      for (int op : state.ops_on(pid)) digest.mix(op);
    }
  }
  EXPECT_EQ(successes, 1894);
  EXPECT_EQ(hex16(digest.h), "62300d28edb93b0f");
}

} // namespace
} // namespace insp
