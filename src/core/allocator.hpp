// End-to-end allocation pipeline (paper §4): operator placement, then
// server selection, then the downgrade step, then a full validation of the
// result against constraints (1)-(5).  Any phase may fail; the experiment
// harness counts failures per heuristic exactly as the paper does.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/constraints.hpp"
#include "core/placement_heuristics.hpp"
#include "core/problem.hpp"
#include "core/strategy_registry.hpp"
#include "util/rng.hpp"

namespace insp {

struct AllocatorOptions {
  bool downgrade = true;  ///< paper skips it only in the homogeneous study
  /// Optional local-search refinement between placement and server
  /// selection (extension beyond the paper; see core/local_search.hpp).
  bool local_search = false;
};

struct AllocationOutcome {
  bool success = false;
  std::string failure_reason;  ///< which phase failed and why
  Allocation allocation;       ///< valid only when success
  Dollars cost = 0.0;
  int num_processors = 0;
  Dollars cost_before_downgrade = 0.0;
};

/// Runs the full pipeline for one heuristic, with the server selection the
/// registry pairs it with, and always validates the result.  `rng` drives
/// the Random heuristic (and random server selection); deterministic given
/// its state.
AllocationOutcome allocate(const Problem& problem, HeuristicKind kind,
                           Rng& rng, const AllocatorOptions& options = {});

} // namespace insp
