// Leaf handler shared by the exact solver's branch-and-bound and the
// test-only reference search (tests/oracles/exact_reference.cpp): pricing
// and installing a complete partition is defined once, so the two searches
// can only differ in how they prune, never in what a leaf costs.  Internal
// header: included by src/ilp/*.cpp and the reference oracle only.
#pragma once

#include <optional>

#include "core/allocation.hpp"
#include "core/placement_state.hpp"
#include "core/problem.hpp"

namespace insp::ilpdetail {

/// Exact cost of a complete partition: cheapest configuration meeting each
/// of the first `opened` processors' full load (CPU + NIC including
/// downloads and comm); nullopt when some load no configuration covers.
std::optional<Dollars> complete_partition_cost(const Problem& problem,
                                               const PlacementState& state,
                                               int opened);

/// Prices the complete partition, routes servers exactly, and installs the
/// allocation as the new incumbent when strictly cheaper than *best_cost.
void try_complete_partition(const Problem& problem, const PlacementState& state,
                            int opened, Dollars* best_cost,
                            std::optional<Allocation>* best_alloc);

} // namespace insp::ilpdetail
