// Fuzzed validity of the composite lower bound (docs/DESIGN.md §14): over
// 1000+ seeded random problems — trees AND shared-subexpression DAGs — the
// cost lower bound must sit at or below EVERY feasible allocation any
// registry heuristic (with and without local search) produces, the
// processor-count lower bound must never exceed a realized processor
// count, and the binding label must name the term that produced the value.
// A lower bound that ever crosses a feasible cost would silently poison
// branch-and-bound pruning and every reported optimality gap.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "../test_helpers.hpp"
#include "core/allocator.hpp"
#include "ilp/bounds.hpp"
#include "multi/multi_app.hpp"
#include "multi/subexpression_fold.hpp"
#include "platform/server_distribution.hpp"

namespace insp {
namespace {

using testhelpers::Fixture;

const std::set<std::string>& known_bindings() {
  static const std::set<std::string> kBindings = {
      "one-processor",
      "processor-count",
      "heaviest-operator",
      "heaviest-operator-unplaceable",
      "fractional-packing",
      "forced-communication",
  };
  return kBindings;
}

/// The shared validity oracle: every feasible allocation's cost dominates
/// the bound, every realized processor count dominates the count bound.
void check_problem(const Problem& prob, const std::string& what,
                   std::uint64_t seed) {
  const CostLowerBound lb = cost_lower_bound(prob);
  const int count_lb = processor_count_lower_bound(prob);

  ASSERT_EQ(known_bindings().count(lb.binding), 1u)
      << what << " unknown binding '" << lb.binding << "'";
  EXPECT_GE(count_lb, 1) << what;
  if (!std::isfinite(lb.value)) {
    EXPECT_STREQ(lb.binding, "heaviest-operator-unplaceable") << what;
  } else {
    EXPECT_GE(lb.value, 0.0) << what;
  }

  for (HeuristicKind h : all_heuristics()) {
    for (const bool local_search : {false, true}) {
      AllocatorOptions opts;
      opts.local_search = local_search;
      Rng rng(seed);
      const AllocationOutcome out = allocate(prob, h, rng, opts);
      if (!out.success) continue;
      // An infinite bound certifies infeasibility; a feasible allocation
      // contradicts it outright.
      ASSERT_TRUE(std::isfinite(lb.value))
          << what << " " << heuristic_name(h)
          << " found a feasible allocation under an infinite bound";
      EXPECT_LE(lb.value, out.cost + 1e-6)
          << what << " " << heuristic_name(h)
          << (local_search ? "+local-search" : "") << " cost " << out.cost;
      EXPECT_LE(count_lb, out.allocation.num_processors())
          << what << " " << heuristic_name(h)
          << (local_search ? "+local-search" : "");
    }
  }
}

TEST(BoundValidityFuzz, TreesNeverExceedAnyFeasibleCost) {
  // 800 tree instances across sizes 2..12 and alphas 0.8..2.0.
  constexpr double kAlphas[] = {0.8, 1.1, 1.4, 1.7, 2.0};
  for (std::uint64_t seed = 0; seed < 800; ++seed) {
    const int n = 2 + static_cast<int>(seed % 11);
    const double alpha = kAlphas[(seed / 11) % 5];
    const Fixture f = testhelpers::random_fixture(seed, n, alpha);
    const std::string what = "tree seed=" + std::to_string(seed) +
                             " n=" + std::to_string(n) +
                             " alpha=" + std::to_string(alpha);
    check_problem(f.problem(), what, seed);
  }
}

TEST(BoundValidityFuzz, SharedSubexpressionDagsNeverExceedAnyFeasibleCost) {
  // 300 folded-DAG instances: two identical applications (maximal sharing)
  // plus one independent, folded into a multicast DAG — the bound's
  // dedup-aware communication and download terms must stay valid when
  // operators have multiple parents.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng gen(seed);
    ObjectCatalog objects = ObjectCatalog::random(gen, 12, 5.0, 30.0, 0.5);
    TreeGenConfig tcfg;
    tcfg.num_operators = 6 + static_cast<int>(seed % 5);
    tcfg.alpha = 0.9 + 0.1 * static_cast<double>(seed % 9);
    std::vector<ApplicationSpec> apps;
    {
      Rng t(seed * 3 + 1);
      apps.push_back({generate_random_tree(t, tcfg, objects), 1.0});
    }
    {
      Rng t(seed * 3 + 1);  // identical draw: guaranteed shared subtrees
      apps.push_back({generate_random_tree(t, tcfg, objects), 1.0});
    }
    {
      Rng t(seed * 3 + 2);
      apps.push_back({generate_random_tree(t, tcfg, objects), 1.0});
    }
    const CombinedApplication combined = combine_applications(apps);
    const FoldResult fold = fold_shared_subexpressions(combined.forest);

    ServerDistConfig dist;
    Rng pg(seed ^ 0x9E3779B9u);
    const Platform platform = make_paper_platform(pg, dist);
    const PriceCatalog catalog = PriceCatalog::paper_default();

    Problem prob;
    prob.tree = &fold.dag;
    prob.platform = &platform;
    prob.catalog = &catalog;
    prob.rho = 1.0;

    const std::string what = "dag seed=" + std::to_string(seed);
    ASSERT_GT(fold.stats.shared_nodes, 0) << what;  // genuinely a DAG
    check_problem(prob, what, seed);
  }
}

TEST(BoundValidityFuzz, BindingLabelsReflectTheDominantTerm) {
  // Spot checks that the labels are not decorative: a one-op tree binds on
  // the single-processor floor; an unplaceable operator reports so; the
  // fractional relaxation labels itself when it dominates.
  {
    const Fixture f = testhelpers::fig1a_fixture(1.0, 10.0);
    const CostLowerBound lb = cost_lower_bound(f.problem());
    EXPECT_TRUE(std::isfinite(lb.value));
  }
  {
    const Fixture f = testhelpers::fig1a_fixture(2.5, 30.0);  // op too heavy
    const CostLowerBound lb = cost_lower_bound(f.problem());
    EXPECT_TRUE(std::isinf(lb.value));
    EXPECT_STREQ(lb.binding, "heaviest-operator-unplaceable");
  }
  {
    const Fixture f = testhelpers::fig1a_fixture(1.8, 30.0);
    const CostLowerBound lb = cost_lower_bound(f.problem());
    const std::string binding = lb.binding;
    EXPECT_TRUE(binding == "fractional-packing" ||
                binding == "forced-communication")
        << binding;
  }
}

} // namespace
} // namespace insp
