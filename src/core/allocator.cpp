#include "core/allocator.hpp"

#include "core/downgrade.hpp"
#include "core/local_search.hpp"
#include "core/server_selection.hpp"
#include "util/log.hpp"

namespace insp {

AllocationOutcome allocate(const Problem& problem, HeuristicKind kind,
                           Rng& rng, const AllocatorOptions& options) {
  AllocationOutcome out;
  if (!problem.valid()) {
    out.failure_reason = "invalid problem instance";
    return out;
  }
  const PlacementStrategy& strat = strategy_for(kind);

  // ---- Phase 1: operator placement. ---------------------------------------
  PlacementState state(problem);
  const PlacementOutcome placed = strat.place(state, rng);
  if (!placed.success) {
    out.failure_reason = "placement: " + placed.failure_reason;
    return out;
  }
  if (options.local_search) {
    refine_placement(state);
  }
  out.allocation = state.to_allocation();

  // ---- Phase 2: server selection. ------------------------------------------
  const ServerSelectionResult sel =
      strat.default_selection == ServerSelectionKind::RandomChoice
          ? select_servers_random(problem, out.allocation, rng)
          : select_servers_three_loop(problem, out.allocation);
  if (!sel.success) {
    out.failure_reason = "server-selection: " + sel.failure_reason;
    return out;
  }

  // ---- Phase 3: downgrade. --------------------------------------------------
  out.cost_before_downgrade = out.allocation.total_cost(*problem.catalog);
  if (options.downgrade) {
    const DowngradeSummary dg = downgrade_processors(problem, out.allocation);
    INSP_DEBUG << heuristic_name(kind) << ": downgrade changed "
               << dg.processors_changed << " processor(s), saved $"
               << dg.saved;
  }

  // ---- Final validation. ----------------------------------------------------
  const CheckReport report = check_allocation(problem, out.allocation);
  if (!report.ok()) {
    out.failure_reason = "validation: " + report.summary();
    return out;
  }

  out.success = true;
  out.cost = out.allocation.total_cost(*problem.catalog);
  out.num_processors = out.allocation.num_processors();
  return out;
}

} // namespace insp
