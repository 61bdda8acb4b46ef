// Ablation variants of the design decisions docs/DESIGN.md documents for the
// heuristics.  Test-only (the insp_oracles library): they are not registry
// strategies, so allocate() never runs them.  bench_ablations calls them
// directly and compares each against its default to quantify how much the
// decision matters:
//  - Subtree-Bottom-Up without opportunistic sibling-processor coalescing
//    (paper's literal "merge with the father" only);
//  - grouping limited to the paper's literal operator pair (no transitive
//    growth).
#pragma once

#include "core/placement_heuristics.hpp"

namespace insp {

/// SBU that never absorbs a sibling processor after placing a parent (the
/// strictly literal reading of the paper's merge step).
PlacementOutcome place_subtree_bottom_up_no_coalesce(PlacementState& state,
                                                     Rng& rng);

/// Random placement whose grouping stops at a pair of operators (the
/// paper's literal text); fails where the iterated version keeps growing.
PlacementOutcome place_random_pair_grouping(PlacementState& state, Rng& rng);

} // namespace insp
