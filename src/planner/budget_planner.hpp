// Budget-dual of the paper's problem: the paper fixes the throughput rho
// and minimizes platform cost; an operator with a fixed budget wants the
// converse — the largest sustainable rho whose cheapest heuristic plan
// stays within budget.
//
// Cost as a function of rho is a non-decreasing step function (every
// constraint tightens with rho), so bisection over rho with the allocation
// pipeline as the oracle converges; the flow analyzer then reports the
// exact sustainable throughput of the winning plan (which can exceed the
// probed rho — plans are discrete).
#pragma once

#include <optional>

#include "core/allocator.hpp"

namespace insp {

struct BudgetPlanConfig {
  Dollars budget = 0.0;
  HeuristicKind heuristic = HeuristicKind::SubtreeBottomUp;
  /// The probed rho range; every probe runs allocate() with default options.
  double rho_min = 1e-3;
  double rho_max = 1024.0;
};

struct BudgetPlanResult {
  bool feasible = false;        ///< some plan fits the budget at rho_min
  double planned_rho = 0.0;     ///< largest probed rho within budget
  double sustainable_rho = 0.0; ///< flow-analyzer rho* of the chosen plan
  AllocationOutcome outcome;    ///< the chosen plan (at planned_rho)
};

/// `problem.rho` is ignored; the probe overrides it.
BudgetPlanResult plan_for_budget(const Problem& problem,
                                 const BudgetPlanConfig& config, Rng& rng);

} // namespace insp
