#include "oracles/merge_sweep_reference.hpp"

namespace insp {

MergeSweepResult merge_sweep_probe_all(PlacementState& state) {
  MergeSweepResult result;
  const std::vector<int> procs = state.live_processors();
  for (std::size_t i = 0; i < procs.size(); ++i) {
    for (std::size_t j = i + 1; j < procs.size(); ++j) {
      const int a = procs[i], b = procs[j];
      if (!state.is_live(a) || !state.is_live(b)) continue;
      if (!merge_promises_saving(state, a, b)) continue;
      ++result.tried;
      const int from =
          state.ops_on(a).size() <= state.ops_on(b).size() ? a : b;
      const int to = from == a ? b : a;
      const int moved_fwd = static_cast<int>(state.ops_on(from).size());
      const int moved_rev = static_cast<int>(state.ops_on(to).size());
      if (state.try_place(state.ops_on(from), to)) {
        ++result.merges;
        result.ops_moved += moved_fwd;
      } else if (state.try_place(state.ops_on(to), from)) {
        ++result.merges;
        result.ops_moved += moved_rev;
      } else {
        ++result.failed;
      }
    }
  }
  return result;
}

} // namespace insp
