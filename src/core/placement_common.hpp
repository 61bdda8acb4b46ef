// Shared machinery for the placement heuristics: the "grouping technique"
// of the paper (§4.1) generalized to iterate until the group fits, plus
// common orderings.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/placement_state.hpp"

namespace insp {

/// Which configurations a group placement may purchase.
enum class GroupConfigPolicy {
  CheapestFirst,      ///< Random: "cheapest possible processor"
  MostExpensiveOnly,  ///< greedy family: "most expensive processor"
};

/// Places `seed` onto a freshly purchased processor, growing a group when
/// the seed cannot be placed alone: the neighbor (child or parent) connected
/// by the most demanding communication edge is merged in and the placement
/// retried — the paper's pairwise grouping, iterated transitively.  Assigned
/// group members are pulled out of their processors (which are sold when
/// emptied).  Returns the processor id, or nullopt with `why` filled.
///
/// Both policies run one purchase path: each growth step judges the policy's
/// configurations (every one cheapest first, or the most expensive alone)
/// on the lifted group (PlacementState's group lift, docs/DESIGN.md §10),
/// and only a configuration the verdict admits is bought and committed with
/// try_place.  A rejected step therefore buys nothing and consumes no
/// processor id.
std::optional<int> place_with_grouping(PlacementState& state, int seed,
                                       GroupConfigPolicy policy,
                                       std::string* why);

/// Operator ids sorted by non-increasing w_i (ties: id ascending) —
/// the processing order of Comp-Greedy and of several fill phases.
std::vector<int> ops_by_work_desc(const OperatorTree& tree);

} // namespace insp
