// Differential test subsystem for the incremental branch-and-bound
// (docs/DESIGN.md §14): on exhaustively enumerable instances the journal-
// based search, the copy-era reference search and an independent brute
// force over ALL set partitions must agree on status and bit-for-bit on
// cost.  Catalog prices are integral and partition costs are short sums of
// them, so double arithmetic is exact and bit-for-bit equality between the
// two searches is the contract, not an approximation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "../test_helpers.hpp"
#include "core/constraints.hpp"
#include "ilp/exact_solver.hpp"
#include "oracles/exact_reference.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Price one complete partition: most-expensive pre-provisioning, exact
/// download routing, then the cheapest configuration meeting each
/// processor's realized load.  Returns nullopt when the partition is
/// infeasible (no routing, or a load no configuration covers).
std::optional<Dollars> price_partition(const Problem& prob,
                                       const std::vector<int>& label,
                                       int blocks) {
  const int n = prob.tree->num_operators();
  Allocation a;
  a.op_to_proc.assign(static_cast<std::size_t>(n), 0);
  a.processors.resize(static_cast<std::size_t>(blocks));
  for (int i = 0; i < n; ++i) {
    const int u = label[static_cast<std::size_t>(i)];
    a.processors[static_cast<std::size_t>(u)].ops.push_back(i);
    a.op_to_proc[static_cast<std::size_t>(i)] = u;
  }
  for (auto& p : a.processors) p.config = prob.catalog->most_expensive();
  if (!route_downloads_exact(prob, a)) return std::nullopt;
  const auto loads = compute_processor_loads(prob, a);
  Dollars cost = 0.0;
  for (std::size_t u = 0; u < a.processors.size(); ++u) {
    const auto cfg = prob.catalog->cheapest_meeting(loads[u].cpu_demand,
                                                    loads[u].nic_total());
    if (!cfg) return std::nullopt;
    a.processors[u].config = *cfg;
    cost += prob.catalog->cost(*cfg);
  }
  if (!check_allocation(prob, a).ok()) return std::nullopt;
  return cost;
}

/// Exhaustive optimum over every set partition of the operators,
/// enumerated as restricted growth strings (no pruning, no ordering
/// heuristics, no shared search machinery): the independent oracle.
double brute_force_best(const Problem& prob) {
  const int n = prob.tree->num_operators();
  std::vector<int> label(static_cast<std::size_t>(n), 0);
  double best = kInf;
  // label[i] in [0, 1 + max(label[0..i-1])]: every partition exactly once.
  auto rec = [&](auto&& self, int i, int next_block) -> void {
    if (i == n) {
      const auto cost = price_partition(prob, label, next_block);
      if (cost) best = std::min(best, *cost);
      return;
    }
    for (int l = 0; l <= next_block && l < n; ++l) {
      label[static_cast<std::size_t>(i)] = l;
      self(self, i + 1, std::max(next_block, l + 1));
    }
  };
  rec(rec, 0, 0);
  return best;
}

void expect_three_way_agreement(const Fixture& f, const char* what) {
  const Problem prob = f.problem();
  const ExactResult inc = solve_exact(prob);
  const ExactResult ref = solve_exact_reference(prob);
  const double brute = brute_force_best(prob);

  ASSERT_NE(inc.status, ExactStatus::BudgetExhausted) << what;
  ASSERT_NE(ref.status, ExactStatus::BudgetExhausted) << what;
  EXPECT_EQ(inc.status, ref.status) << what;
  if (inc.status == ExactStatus::Optimal) {
    ASSERT_TRUE(inc.cost.has_value()) << what;
    ASSERT_TRUE(ref.cost.has_value()) << what;
    // Bit-for-bit: both searches price partitions with the same integral
    // catalog arithmetic.
    EXPECT_EQ(*inc.cost, *ref.cost) << what;
    ASSERT_TRUE(std::isfinite(brute)) << what;
    EXPECT_NEAR(*inc.cost, brute, 1e-6) << what;
    ASSERT_TRUE(inc.allocation.has_value()) << what;
    EXPECT_TRUE(check_allocation(prob, *inc.allocation).ok()) << what;
  } else {
    EXPECT_TRUE(std::isinf(brute)) << what;
    EXPECT_FALSE(inc.cost.has_value()) << what;
    EXPECT_FALSE(ref.cost.has_value()) << what;
  }
}

TEST(BbIncrementalDiff, ExhaustiveAgreementUpToEightOperators) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    for (int n : {2, 3, 4, 5, 6, 7, 8}) {
      for (double alpha : {1.0, 1.6}) {
        const Fixture f = testhelpers::random_fixture(seed, n, alpha);
        const std::string what = "seed=" + std::to_string(seed) +
                                 " n=" + std::to_string(n) +
                                 " alpha=" + std::to_string(alpha);
        expect_three_way_agreement(f, what.c_str());
      }
    }
  }
}

TEST(BbIncrementalDiff, ExhaustiveAgreementAtTenOperators) {
  // Bell(10) = 115975 partitions per instance: two seeds keep the oracle
  // affordable while still covering the ISSUE's N <= 10 floor.
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const Fixture f = testhelpers::random_fixture(seed, 10, 1.5);
    const std::string what = "seed=" + std::to_string(seed) + " n=10";
    expect_three_way_agreement(f, what.c_str());
  }
}

TEST(BbIncrementalDiff, AgreementOnPaperFigure) {
  for (double alpha : {1.0, 1.8, 1.85, 2.5}) {
    const Fixture f = testhelpers::fig1a_fixture(alpha, 30.0);
    const std::string what = "fig1a alpha=" + std::to_string(alpha);
    expect_three_way_agreement(f, what.c_str());
  }
}

TEST(BbIncrementalDiff, BudgetMonotonicityNeverWorsensTheIncumbent) {
  // The incremental search expands a deterministic node sequence, so a
  // larger budget explores a superset of nodes: the reported upper bound is
  // monotone non-increasing in the budget, and once some budget proves
  // Optimal every larger budget reports the identical cost.
  const Fixture f = testhelpers::random_fixture(3, 10, 1.6);
  const Problem prob = f.problem();

  for (const bool seeded : {false, true}) {
    ExactSolverConfig cfg;
    cfg.seed_with_heuristics = seeded;
    double prev_cost = kInf;
    std::optional<Dollars> optimal_cost;
    for (const std::uint64_t budget :
         {std::uint64_t{1}, std::uint64_t{8}, std::uint64_t{64},
          std::uint64_t{512}, std::uint64_t{4096}, std::uint64_t{0}}) {
      cfg.node_budget = budget;
      const ExactResult r = solve_exact(prob, cfg);
      const char* what = seeded ? "seeded" : "unseeded";
      if (optimal_cost) {
        // A previously proved optimum must be reproduced, not revised.
        ASSERT_EQ(r.status, ExactStatus::Optimal)
            << what << " budget=" << budget;
        EXPECT_EQ(*r.cost, *optimal_cost) << what << " budget=" << budget;
        continue;
      }
      if (r.cost) {
        EXPECT_LE(*r.cost, prev_cost + 1e-9) << what << " budget=" << budget;
        prev_cost = *r.cost;
      }
      if (r.status == ExactStatus::Optimal) optimal_cost = r.cost;
    }
    // The unlimited budget run must have settled the instance.
    EXPECT_TRUE(optimal_cost.has_value()) << (seeded ? "seeded" : "unseeded");
  }
}

TEST(BbIncrementalDiff, ReferenceSearchSharesBudgetSemantics) {
  const Fixture f = testhelpers::random_fixture(3, 10, 1.6);
  const Problem prob = f.problem();
  ExactSolverConfig tiny;
  tiny.node_budget = 3;
  const ExactResult capped = solve_exact_reference(prob, tiny);
  EXPECT_EQ(capped.status, ExactStatus::BudgetExhausted);
  const ExactResult full = solve_exact_reference(prob);
  ASSERT_EQ(full.status, ExactStatus::Optimal);
  const ExactResult inc = solve_exact(prob);
  ASSERT_EQ(inc.status, ExactStatus::Optimal);
  EXPECT_EQ(*full.cost, *inc.cost);
}

} // namespace
} // namespace insp
