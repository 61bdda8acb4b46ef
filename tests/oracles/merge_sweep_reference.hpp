// The consolidation merge sweep without its CPU pre-verdict (test-only, the
// insp_oracles library): every pair merge_promises_saving accepts is probed
// with try_place in both directions, as merge_sweep did before it learned to
// reject a receiver whose CPU cannot hold the merged load.  The pair filter
// is the production one, so agreement with merge_sweep tests the
// pre-verdict alone.
#pragma once

#include <ostream>

#include "core/local_search.hpp"

namespace insp {

MergeSweepResult merge_sweep_probe_all(PlacementState& state);

/// GoogleTest's printer for the sweeps' results.
inline void PrintTo(const MergeSweepResult& r, std::ostream* os) {
  *os << "{merges " << r.merges << ", ops_moved " << r.ops_moved
      << ", tried " << r.tried << ", failed " << r.failed << "}";
}

} // namespace insp
