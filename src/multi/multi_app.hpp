// Multiple simultaneous applications (the paper's §6 future work): several
// operator trees, each with its own target throughput rho_a, provisioned on
// ONE purchased platform so processors can be shared across applications.
//
// The reduction to the single-application machinery is exact: fold each
// application's rho_a into its operators (w <- rho_a * w, delta <- rho_a *
// delta; download rates are freshness-driven and unchanged) and combine the
// trees into a *forest* OperatorTree solved at rho = 1.  Constraints (1),
// (2) and (5) are linear in rho * w and rho * delta, so the folded forest's
// constraint system is identical to solving each application at its own
// rho — with the added freedom that one processor may host operators of
// several applications (and share downloads of common object types).
//
// All applications must draw their basic objects from the same catalog
// (the platform hosts one universe of objects).
#pragma once

#include <vector>

#include "core/allocator.hpp"
#include "tree/operator_tree.hpp"

namespace insp {

struct ApplicationSpec {
  OperatorTree tree;
  Throughput rho = 1.0;
};

struct CombinedApplication {
  /// Forest over the shared catalog, demands folded (solve at rho = 1).
  OperatorTree forest;
  /// Application index -> forest id of its root.
  std::vector<int> root_of_app;
  /// Application index -> first forest id of its operators (ids are
  /// contiguous per application).
  std::vector<int> op_offset_of_app;
};

/// Combines applications into one folded forest.  Throws
/// std::invalid_argument when catalogs differ or an application is empty.
CombinedApplication combine_applications(
    const std::vector<ApplicationSpec>& apps);

/// Joint allocation: one purchase plan serving every application at its
/// own throughput.  Equivalent to allocate() on the combined forest.
AllocationOutcome allocate_joint(const CombinedApplication& combined,
                                 const Platform& platform,
                                 const PriceCatalog& catalog,
                                 HeuristicKind kind, Rng& rng,
                                 const AllocatorOptions& options = {});

/// Baseline: allocate each application on its own dedicated processors
/// (no sharing); returns the summed cost, or failure if any application
/// fails.  The gap to allocate_joint is the benefit the paper's future-work
/// section anticipates.
struct SeparateAllocationOutcome {
  bool success = false;
  std::string failure_reason;
  Dollars total_cost = 0.0;
  int total_processors = 0;
  std::vector<AllocationOutcome> per_app;
};
SeparateAllocationOutcome allocate_separate(
    const std::vector<ApplicationSpec>& apps, const Platform& platform,
    const PriceCatalog& catalog, HeuristicKind kind, Rng& rng,
    const AllocatorOptions& options = {});

} // namespace insp
