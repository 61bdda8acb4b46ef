// Local-search refinement of a placement (an extension beyond the paper,
// in the spirit of its conclusion).  Operates on the live PlacementState
// between the placement and server-selection phases; the objective is the
// *projected post-downgrade cost*: the sum over live processors of the
// price of downgraded_config (core/downgrade.hpp) at each processor's
// current CPU and NIC load — the downgrade phase's own rule, so exactly
// what that phase will charge.
//
// Two move types, applied in passes until a fixpoint or a fixed pass limit:
//   - merge: move one processor's whole content onto another and sell it,
//     when the merged cheapest-meeting config costs less than the pair
//     (merge_sweep — also the dynamic repair engine's consolidation pass);
//   - relocate: move a single operator to another processor when that
//     lowers the projected total.
// Every move goes through try_place, so feasibility (1)-(5 realized) is
// preserved by construction.
#pragma once

#include "core/placement_state.hpp"

namespace insp {

struct LocalSearchStats {
  int merges = 0;
  int relocations = 0;
  int passes = 0;
  Dollars projected_cost_before = 0.0;
  Dollars projected_cost_after = 0.0;
};

/// Projected post-downgrade cost of the current state (sum of the
/// downgraded_config prices; the current configs are upper bounds).
Dollars projected_downgraded_cost(const PlacementState& state);

struct MergeSweepResult {
  int merges = 0;     ///< processors emptied and sold
  int ops_moved = 0;  ///< operators moved by those merges
};

/// One merge sweep over the live processors, pairwise in live order: each
/// pair whose projected merged cost (shared downloads counted once, mutual
/// traffic freed) beats the pair's projected costs by more than 1e-9 moves
/// the lighter processor's operators onto the other (or, failing that, the
/// reverse).  Shared by refine_placement and the dynamic repair
/// engine's consolidation (src/dynamic/).
MergeSweepResult merge_sweep(PlacementState& state);

LocalSearchStats refine_placement(PlacementState& state);

} // namespace insp
