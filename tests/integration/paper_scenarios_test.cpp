// Shape-level regression tests pinning the paper's qualitative findings
// (the bench binaries print the full figures; these tests keep the claims
// true as the code evolves).  Small repetition counts keep them fast.
#include <gtest/gtest.h>

#include "bench_support/experiment.hpp"
#include "harness/stats.hpp"
#include "ilp/exact_solver.hpp"

namespace insp {
namespace {

InstanceConfig paper_cfg(int n, double alpha) {
  InstanceConfig cfg;
  cfg.tree.num_operators = n;
  cfg.tree.alpha = alpha;
  cfg.tree.num_object_types = 15;
  cfg.tree.object_size_lo = 5.0;
  cfg.tree.object_size_hi = 30.0;
  cfg.tree.download_freq = 0.5;
  cfg.tree.at_most_n = true;
  cfg.servers.num_servers = 6;
  return cfg;
}

double mean_cost_over_seeds(const InstanceConfig& cfg, HeuristicKind k,
                            int reps, int* failures = nullptr) {
  SampleSet costs;
  int fails = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const Instance inst = make_instance(1000 + rep, cfg);
    Rng rng(55 + rep);
    const AllocationOutcome out = allocate(inst.problem(), k, rng);
    if (out.success) {
      costs.add(out.cost);
    } else {
      ++fails;
    }
  }
  if (failures) *failures = fails;
  return costs.empty() ? -1.0 : costs.mean();
}

TEST(PaperShape, RandomPerformsPoorly) {
  // Paper §5: "As expected, Random performs poorly."
  const InstanceConfig cfg = paper_cfg(60, 0.9);
  const double random = mean_cost_over_seeds(cfg, HeuristicKind::Random, 6);
  const double sbu =
      mean_cost_over_seeds(cfg, HeuristicKind::SubtreeBottomUp, 6);
  ASSERT_GT(random, 0);
  ASSERT_GT(sbu, 0);
  EXPECT_GT(random, 3.0 * sbu);
}

TEST(PaperShape, SubtreeBottomUpBeatsObjectHeuristics) {
  // Paper ranking: SBU, Greedy family, Object-Grouping, Object-
  // Availability, Random.
  const InstanceConfig cfg = paper_cfg(60, 0.9);
  const double sbu =
      mean_cost_over_seeds(cfg, HeuristicKind::SubtreeBottomUp, 6);
  const double og =
      mean_cost_over_seeds(cfg, HeuristicKind::ObjectGrouping, 6);
  const double oa =
      mean_cost_over_seeds(cfg, HeuristicKind::ObjectAvailability, 6);
  const double random = mean_cost_over_seeds(cfg, HeuristicKind::Random, 6);
  EXPECT_LT(sbu, og);
  EXPECT_LT(og, oa);
  EXPECT_LT(oa, random);
}

TEST(PaperShape, SubtreeBottomUpAtMostGreedyFamily) {
  const InstanceConfig cfg = paper_cfg(60, 0.9);
  const double sbu =
      mean_cost_over_seeds(cfg, HeuristicKind::SubtreeBottomUp, 6);
  const double comp =
      mean_cost_over_seeds(cfg, HeuristicKind::CompGreedy, 6);
  const double comm =
      mean_cost_over_seeds(cfg, HeuristicKind::CommGreedy, 6);
  EXPECT_LE(sbu, comp * 1.05);
  EXPECT_LE(sbu, comm * 1.05);
}

TEST(PaperShape, AlphaCliffAtN60LiesNear1p8) {
  // Fig 3: no solutions past alpha ~1.8-2.0 for N = 60; plenty at 1.0.
  int fails_low = 0, fails_high = 0;
  mean_cost_over_seeds(paper_cfg(60, 1.0), HeuristicKind::CompGreedy, 6,
                       &fails_low);
  mean_cost_over_seeds(paper_cfg(60, 2.1), HeuristicKind::CompGreedy, 6,
                       &fails_high);
  EXPECT_EQ(fails_low, 0);
  EXPECT_EQ(fails_high, 6);
}

TEST(PaperShape, AlphaCliffAtN20LiesNear2p2) {
  int fails_mid = 0, fails_high = 0;
  mean_cost_over_seeds(paper_cfg(20, 1.8), HeuristicKind::CompGreedy, 6,
                       &fails_mid);
  mean_cost_over_seeds(paper_cfg(20, 2.5), HeuristicKind::CompGreedy, 6,
                       &fails_high);
  // Feasible well past the N=60 cliff, dead by 2.5.
  EXPECT_LE(fails_mid, 2);
  EXPECT_EQ(fails_high, 6);
}

TEST(PaperShape, CostRisesWithAlphaBeforeTheCliff) {
  // Fig 3: flat region then growth.
  const double flat =
      mean_cost_over_seeds(paper_cfg(60, 0.9), HeuristicKind::CompGreedy, 6);
  const double steep =
      mean_cost_over_seeds(paper_cfg(60, 1.7), HeuristicKind::CompGreedy, 6);
  ASSERT_GT(flat, 0);
  ASSERT_GT(steep, 0);
  EXPECT_GT(steep, 2.0 * flat);
}

TEST(PaperShape, LargeObjectsInfeasibleBeyond45Nodes) {
  InstanceConfig cfg = paper_cfg(60, 0.9);
  cfg.tree.object_size_lo = 450.0;
  cfg.tree.object_size_hi = 530.0;
  int fails = 0;
  mean_cost_over_seeds(cfg, HeuristicKind::SubtreeBottomUp, 6, &fails);
  EXPECT_GE(fails, 5);  // nearly always infeasible at N = 60

  InstanceConfig small = cfg;
  small.tree.num_operators = 15;
  int fails_small = 0;
  mean_cost_over_seeds(small, HeuristicKind::SubtreeBottomUp, 6,
                       &fails_small);
  EXPECT_LE(fails_small, 2);  // mostly feasible at N = 15
}

TEST(PaperShape, LowFrequencyNeverCostsMore) {
  // §5: low frequencies lead to the same mappings with cheaper NICs.
  InstanceConfig high = paper_cfg(60, 0.9);
  InstanceConfig low = high;
  low.tree.download_freq = 0.02;
  for (HeuristicKind k :
       {HeuristicKind::SubtreeBottomUp, HeuristicKind::CompGreedy}) {
    const double c_high = mean_cost_over_seeds(high, k, 6);
    const double c_low = mean_cost_over_seeds(low, k, 6);
    ASSERT_GT(c_high, 0);
    ASSERT_GT(c_low, 0);
    EXPECT_LE(c_low, c_high + 1e-9) << heuristic_name(k);
  }
}

TEST(PaperShape, FrequenciesBelowOneTenthChangeNothing) {
  // §5: "frequencies smaller than 1/10s have no further influence".
  InstanceConfig f10 = paper_cfg(40, 0.9);
  f10.tree.download_freq = 0.1;
  InstanceConfig f50 = f10;
  f50.tree.download_freq = 0.02;
  const double c10 =
      mean_cost_over_seeds(f10, HeuristicKind::SubtreeBottomUp, 6);
  const double c50 =
      mean_cost_over_seeds(f50, HeuristicKind::SubtreeBottomUp, 6);
  EXPECT_DOUBLE_EQ(c10, c50);
}

TEST(PaperShape, ExactOptimumIsSingleProcessorOnSmallTrees) {
  // §5: "For trees with 20 operators, Cplex returns the optimal solution,
  // which consists in all cases in buying a single processor."  Our exact
  // solver reproduces this on solver-sized instances.
  for (int rep = 0; rep < 3; ++rep) {
    InstanceConfig cfg = paper_cfg(10, 0.9);
    cfg.tree.at_most_n = false;
    const Instance inst = make_instance(2000 + rep, cfg);
    const ExactResult r = solve_exact(inst.problem());
    ASSERT_EQ(r.status, ExactStatus::Optimal) << r.describe();
    EXPECT_EQ(r.allocation->num_processors(), 1);
  }
}

TEST(PaperShape, SubtreeBottomUpNearOptimalHomogeneous) {
  // §5 homogeneous study: SBU finds the optimum in most cases.
  int optimal_hits = 0, solved = 0;
  for (int rep = 0; rep < 5; ++rep) {
    InstanceConfig cfg = paper_cfg(8, 1.3);
    cfg.tree.at_most_n = false;
    cfg.homogeneous_catalog = true;
    const Instance inst = make_instance(3000 + rep, cfg);
    const ExactResult r = solve_exact(inst.problem());
    if (r.status != ExactStatus::Optimal) continue;
    ++solved;
    Rng rng(1);
    AllocatorOptions opts;
    opts.downgrade = false;  // paper skips downgrading here
    const AllocationOutcome out =
        allocate(inst.problem(), HeuristicKind::SubtreeBottomUp, rng, opts);
    if (out.success && out.cost <= *r.cost * 1.0001) ++optimal_hits;
  }
  ASSERT_GT(solved, 0);
  EXPECT_GE(optimal_hits * 2, solved);  // optimal in most cases
}

} // namespace
} // namespace insp
