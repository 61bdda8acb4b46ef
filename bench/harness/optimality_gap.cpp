#include "harness/optimality_gap.hpp"

#include <limits>

namespace insp {

double OptimalityGap::ratio() const {
  if (!measured() || !exact_cost || *exact_cost <= 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return observed_cost / *exact_cost;
}

double OptimalityGap::percent() const { return 100.0 * (ratio() - 1.0); }

OptimalityGap measure_gap(const Problem& problem, Dollars observed_cost,
                          const ExactSolverConfig& config) {
  const ExactResult r = solve_exact(problem, config);
  OptimalityGap gap;
  gap.exact_status = r.status;
  gap.exact_cost = r.cost;
  gap.observed_cost = observed_cost;
  gap.nodes_visited = r.nodes_visited;
  return gap;
}

} // namespace insp
