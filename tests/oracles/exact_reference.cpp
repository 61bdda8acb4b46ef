#include "oracles/exact_reference.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "core/placement_common.hpp"
#include "core/placement_state.hpp"
#include "ilp/exact_solver_internal.hpp"

namespace insp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The pre-incremental search: copy-era pruning (per-processor CPU demand
/// only), no incumbent seeding.
class ReferenceSearch {
 public:
  ReferenceSearch(const Problem& problem, const ExactSolverConfig& config)
      : problem_(problem),
        config_(config),
        state_(problem),
        order_(ops_by_work_desc(*problem.tree)) {}

  ExactResult run() {
    ExactResult result;
    if (config_.incumbent) best_cost_ = *config_.incumbent;

    // Pre-buy the maximum number of processors; only the first `opened`
    // count toward cost and candidate targets.
    const int n = problem_.tree->num_operators();
    for (int i = 0; i < n; ++i) {
      state_.buy(problem_.catalog->most_expensive());
    }

    budget_ok_ = true;
    dfs(0, 0);

    result.nodes_visited = nodes_;
    if (!budget_ok_) {
      result.status = ExactStatus::BudgetExhausted;
    } else if (best_alloc_.has_value()) {
      result.status = ExactStatus::Optimal;
    } else {
      result.status = ExactStatus::Infeasible;
    }
    if (best_alloc_) {
      result.cost = best_cost_;
      result.allocation = std::move(best_alloc_);
    }
    return result;
  }

 private:
  /// Cost of the partition if completed as-is: per opened processor the
  /// cheapest configuration covering its *current* CPU demand only (the
  /// historical bound; the incremental search in src/ilp/exact_solver.cpp
  /// proves NIC loads are monotone too and charges them).
  Dollars partial_cost_bound(int opened) const {
    Dollars total = 0.0;
    for (int u = 0; u < opened; ++u) {
      const auto cfg =
          problem_.catalog->cheapest_meeting(state_.cpu_demand(u), 0.0);
      if (!cfg) return kInf;
      total += problem_.catalog->cost(*cfg);
    }
    return total;
  }

  void dfs(std::size_t depth, int opened) {
    if (!budget_ok_) return;
    if (config_.node_budget && nodes_ >= config_.node_budget) {
      budget_ok_ = false;
      return;
    }
    ++nodes_;

    if (depth == order_.size()) {
      ilpdetail::try_complete_partition(problem_, state_, opened,
                                        &best_cost_, &best_alloc_);
      return;
    }
    if (partial_cost_bound(opened) >= best_cost_ - 1e-9) return;

    const int op = order_[depth];
    const int max_target = std::min(opened + 1,
                                    problem_.tree->num_operators());
    for (int u = 0; u < max_target; ++u) {
      // search_place validates only the capacities the assignment touched —
      // equivalent to a full feasible() scan here because every state on the
      // search path was feasible when it was extended.
      if (state_.search_place(op, u)) {
        dfs(depth + 1, std::max(opened, u + 1));
      }
      state_.search_unassign(op);
      if (!budget_ok_) return;
    }
  }

  const Problem& problem_;
  const ExactSolverConfig& config_;
  PlacementState state_;
  std::vector<int> order_;
  Dollars best_cost_ = kInf;
  std::optional<Allocation> best_alloc_;
  std::uint64_t nodes_ = 0;
  bool budget_ok_ = true;
};

} // namespace

ExactResult solve_exact_reference(const Problem& problem,
                                  const ExactSolverConfig& config) {
  return ReferenceSearch(problem, config).run();
}

} // namespace insp
