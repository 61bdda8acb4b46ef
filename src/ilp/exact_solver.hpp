// Exact optimal-cost solver, standing in for the paper's CPLEX runs
// (docs/DESIGN.md §4, §14).  Incremental branch-and-bound over
// operator->processor partitions, walking ONE live PlacementState through
// the transactional engine instead of copying and re-provisioning:
//
//  - operators are assigned in non-increasing w order; a new processor may
//    only be opened as the next unused index (symmetry breaking);
//  - every processor is pre-provisioned with the catalog's most expensive
//    configuration; each child target is tried with `search_place` and
//    undone with `search_unassign` (touched-set verdicts) — realized loads
//    grow monotonically along a search path, so a failed touched verdict
//    prunes the whole subtree;
//  - the incumbent is seeded from the registry's six heuristics before the
//    search starts, and nodes prune against the composite lower bound
//    (ilp/bounds.hpp: fractional packing + forced communication) plus a
//    partial-state bound: per opened processor the cheapest configuration
//    covering its CURRENT CPU and NIC load (both monotone under descent —
//    including multicast-dedup comm, since descent never unassigns), plus
//    cheapest-configuration charges for the processors the remaining work
//    cannot avoid opening;
//  - at a complete partition the per-processor configuration choice is
//    independent: the optimal cost is the sum of cheapest-meeting configs;
//  - server selection feasibility is decided exactly by a backtracking
//    router over (processor, type) demands (the three-loop heuristic is
//    tried first as a fast path).
//
// Practical for the paper's comparison sizes (N <= ~16, where CPLEX itself
// topped out at 20); a node budget turns the result into a lower-bound
// status instead of hanging.  The previous copy-era search (CPU-only bound,
// no seeding) lives on as a test-only oracle,
// tests/oracles/exact_reference.hpp: the differential oracle for tests/ilp
// and the node-count baseline for bench_ilp_comparison.  Both searches
// price leaves through ilp/exact_solver_internal.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/allocation.hpp"
#include "core/problem.hpp"

namespace insp {

struct ExactSolverConfig {
  /// Abort after this many search nodes (0 = unlimited).
  std::uint64_t node_budget = 20'000'000;
  /// Optional upper bound seed (e.g. a heuristic's cost) to prune earlier.
  std::optional<Dollars> incumbent;
  /// Run the registry's six heuristics first and adopt the best feasible
  /// result as the starting incumbent (and as the answer, when it meets the
  /// root lower bound).  The reference search ignores this.
  bool seed_with_heuristics = true;
};

enum class ExactStatus {
  Optimal,          ///< search exhausted: cost is the true optimum
  Infeasible,       ///< search exhausted: no feasible allocation exists
  BudgetExhausted,  ///< best-found cost (if any) is only an upper bound
};

struct ExactResult {
  ExactStatus status = ExactStatus::Infeasible;
  std::optional<Dollars> cost;
  std::optional<Allocation> allocation;
  std::uint64_t nodes_visited = 0;
  std::string describe() const;
};

ExactResult solve_exact(const Problem& problem,
                        const ExactSolverConfig& config = {});

/// Exact feasibility of server selection for a fixed operator placement:
/// backtracking over per-(processor, type) demands.  Fills `alloc`'s
/// download routes on success.  DAG semantics: demands are the distinct
/// object types each processor's operators reference (shared types
/// deduplicate per processor, exactly as constraint (2) charges them);
/// operator->operator edges and multicast shipments never touch servers,
/// so shared-subexpression DAGs need no extra routing work.
bool route_downloads_exact(const Problem& problem, Allocation& alloc);

} // namespace insp
