// The per-event epilogue kernels as std::set / std::map code (test-only, the
// insp_oracles library): needed types, link loads, the constraint checker
// and the three-loop server selection as they were before they moved onto
// flat vectors.  tests/core/epilogue_diff_test.cpp holds the production
// kernels to these bit for bit: the same types, the same loads (compared
// with ==), the same routes in the same order, the same violations and the
// same failure reasons.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "core/constraints.hpp"
#include "core/problem.hpp"
#include "core/server_selection.hpp"

namespace insp {

/// Link loads accumulated with std::map `+=`, keyed like LinkLoads.
struct LinkLoadsReference {
  std::vector<MBps> server_card;
  std::map<std::pair<int, int>, MBps> server_proc;
  std::map<std::pair<int, int>, MBps> proc_proc;
};

std::vector<std::vector<int>> needed_types_per_processor_reference(
    const Problem& problem, const Allocation& alloc);

LinkLoadsReference compute_link_loads_reference(const Problem& problem,
                                                const Allocation& alloc);

CheckReport check_allocation_reference(const Problem& problem,
                                       const Allocation& alloc);

ServerSelectionResult select_servers_three_loop_reference(
    const Problem& problem, Allocation& alloc);

} // namespace insp
