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
//     (merge_sweep — also the dynamic repair engine's consolidation pass).
//     A direction whose receiver's CPU cannot hold the merged load is
//     rejected before any operator is staged (merge_sweep's pre-verdict);
//     it is the CPU half of try_place's own rule, so it changes no verdict;
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
  int tried = 0;      ///< pairs whose projection promised a saving
  int failed = 0;     ///< tried pairs that merged in neither direction

  bool operator==(const MergeSweepResult&) const = default;
};

/// True when the cheapest configuration meeting the merged loads of live
/// processors `a` and `b` (shared downloads counted once, mutual traffic
/// freed) costs more than 1e-9 less than the pair's projected costs:
/// merge_sweep's pair filter.
bool merge_promises_saving(const PlacementState& state, int a, int b);

/// One merge sweep over the live processors, pairwise in live order: each
/// pair merge_promises_saving accepts moves the lighter processor's
/// operators onto the other (or, failing that, the reverse).
///
/// Before each direction's try_place, a pre-verdict judges the merged CPU
/// load `cpu_demand(a) + cpu_demand(b)`, lowered by a relative 1e-9, with
/// no_worse against the receiver's current CPU load and speed; a direction
/// it rejects is never staged.  try_place judges the receiver's CPU by the
/// same rule on the same load summed in another order, and no_worse only
/// loosens as the load falls, so the margin (far above any summation-order
/// error) makes the pre-verdict the more lenient of the two: every
/// direction it skips is one try_place would reject, and a rejected probe
/// leaves the state bit for bit as it was.  Results, including the
/// counters, equal those of probing every direction.  Shared by
/// refine_placement and the dynamic repair engine's consolidation
/// (src/dynamic/).
MergeSweepResult merge_sweep(PlacementState& state);

LocalSearchStats refine_placement(PlacementState& state);

} // namespace insp
