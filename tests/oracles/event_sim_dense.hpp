// Dense reference implementation of the event simulator (test-only, the
// insp_oracles library): the seed-era data layout the sparse core in
// sim/event_sim.hpp replaced.  It is the oracle of the differential suite
// (tests/sim/sim_differential_test.cpp) and the baseline bench_sim_speed
// measures the sparse core against; the two cores must agree bit-exactly.
#pragma once

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "sim/event_sim.hpp"
#include "sim/sim_platform_view.hpp"

namespace insp {

/// Same semantics as simulate_allocation, always over the full window
/// (periods_simulated == periods: no steady-state fast-forward).
EventSimResult simulate_allocation_dense_reference(
    const Problem& problem, const Allocation& alloc,
    const SimPlatformView& view, const EventSimConfig& config = {});

} // namespace insp
