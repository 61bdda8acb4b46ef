#include "harness/gap_study.hpp"

#include <algorithm>

#include "dynamic/repair_allocator.hpp"

namespace insp::benchx {

GapStudyResult run_gap_study(const DynamicWorld& world, std::uint64_t seed,
                             std::uint64_t exact_node_budget) {
  RepairOptions repair_opts;  // incremental repair, defaults
  RepairOptions scratch_opts;
  scratch_opts.always_fallback = true;

  DynamicAllocator repair(world.apps, world.platform, world.catalog,
                          repair_opts);
  DynamicAllocator scratch(world.apps, world.platform, world.catalog,
                           scratch_opts);

  ExactSolverConfig exact_cfg;
  exact_cfg.node_budget = exact_node_budget;

  GapStudyResult out;
  double repair_sum = 0.0;
  double scratch_sum = 0.0;

  const auto record = [&](int event_index, bool both_ok) {
    if (!both_ok) return;
    ++out.events_comparable;
    // Both engines hold allocations for the SAME folded problem; one exact
    // solve anchors both costs.
    const ExactResult ex = solve_exact(repair.problem(), exact_cfg);
    GapEventSample s;
    s.event_index = event_index;
    s.nodes_visited = ex.nodes_visited;
    s.measured = ex.status == ExactStatus::Optimal && ex.cost.has_value() &&
                 *ex.cost > 0.0;
    if (s.measured) {
      s.repair_ratio = repair.cost() / *ex.cost;
      s.scratch_ratio = scratch.cost() / *ex.cost;
      ++out.events_measured;
      repair_sum += s.repair_ratio;
      scratch_sum += s.scratch_ratio;
      out.repair_gap_max = std::max(out.repair_gap_max, s.repair_ratio);
      out.scratch_gap_max = std::max(out.scratch_gap_max, s.scratch_ratio);
    }
    out.samples.push_back(s);
  };

  const RepairReport r0 = repair.initialize(seed);
  const RepairReport s0 = scratch.initialize(seed);
  if (!r0.success) ++out.repair_failures;
  if (!s0.success) ++out.scratch_failures;
  record(0, r0.success && s0.success);

  int index = 1;
  for (const WorkloadEvent& event : world.trace.events) {
    const RepairReport rr = repair.apply(event, world.trace);
    const RepairReport sr = scratch.apply(event, world.trace);
    ++out.events_applied;
    if (!rr.success) ++out.repair_failures;
    if (!sr.success) ++out.scratch_failures;
    record(index, rr.success && sr.success);
    ++index;
  }

  if (out.events_measured > 0) {
    out.repair_gap_mean = repair_sum / out.events_measured;
    out.scratch_gap_mean = scratch_sum / out.events_measured;
  }
  return out;
}

} // namespace insp::benchx
