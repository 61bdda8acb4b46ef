#include "planner/budget_planner.hpp"

#include "sim/flow_analyzer.hpp"

namespace insp {

namespace {

/// Bisection stops after kMaxBisections steps or once the bracket is within
/// kRelativeTolerance of its lower end.
constexpr int kMaxBisections = 40;
constexpr double kRelativeTolerance = 1e-3;

/// Runs the pipeline at the probe rho; success means "within budget".
std::optional<AllocationOutcome> probe(const Problem& base,
                                       const BudgetPlanConfig& cfg,
                                       double rho, Rng& rng) {
  Problem p = base;
  p.rho = rho;
  Rng local = rng;  // identical stream per probe: rho is the only variable
  AllocationOutcome out = allocate(p, cfg.heuristic, local);
  if (!out.success || out.cost > cfg.budget + 1e-9) return std::nullopt;
  return out;
}

} // namespace

BudgetPlanResult plan_for_budget(const Problem& problem,
                                 const BudgetPlanConfig& config, Rng& rng) {
  BudgetPlanResult result;

  auto lowest = probe(problem, config, config.rho_min, rng);
  if (!lowest) return result;  // not even the minimum rate fits
  result.feasible = true;
  result.planned_rho = config.rho_min;
  result.outcome = std::move(*lowest);

  // Exponential growth to bracket the infeasible side.
  double lo = config.rho_min;
  double hi = lo;
  while (hi < config.rho_max) {
    hi = std::min(config.rho_max, hi * 2.0);
    auto out = probe(problem, config, hi, rng);
    if (out) {
      lo = hi;
      result.planned_rho = hi;
      result.outcome = std::move(*out);
      if (hi >= config.rho_max) break;  // everything fits; stop at the cap
    } else {
      break;
    }
  }

  // Bisection between the last feasible lo and the first infeasible hi.
  if (hi > lo) {
    for (int i = 0; i < kMaxBisections && (hi - lo) > kRelativeTolerance * lo;
         ++i) {
      const double mid = 0.5 * (lo + hi);
      auto out = probe(problem, config, mid, rng);
      if (out) {
        lo = mid;
        result.planned_rho = mid;
        result.outcome = std::move(*out);
      } else {
        hi = mid;
      }
    }
  }

  // The chosen plan's true capability (discrete plans often exceed the
  // probed rho).
  Problem at_plan = problem;
  at_plan.rho = result.planned_rho;
  result.sustainable_rho =
      analyze_flow(at_plan, result.outcome.allocation).max_throughput;
  return result;
}

} // namespace insp
