// The pre-incremental branch-and-bound (test-only, the insp_oracles
// library): copy-era pruning — CPU-only partial bound, no incumbent
// seeding, no composite root bound.  Kept as a differential oracle:
// tests/ilp assert cost/status agreement with solve_exact, and
// bench_ilp_comparison reports the node-count ratio.  It prices leaves
// through the solver's own handler (ilp/exact_solver_internal.hpp), so the
// bit-for-bit cost agreement tests pruning, not duplicated pricing.
#pragma once

#include "core/problem.hpp"
#include "ilp/exact_solver.hpp"

namespace insp {

/// `config.seed_with_heuristics` is ignored; `node_budget` and `incumbent`
/// mean what they mean for solve_exact.
ExactResult solve_exact_reference(const Problem& problem,
                                  const ExactSolverConfig& config = {});

} // namespace insp
