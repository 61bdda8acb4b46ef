#include "core/local_search.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "core/downgrade.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

namespace insp {

namespace {

// Projected post-downgrade cost of one live processor: the price of the
// configuration the downgrade phase would give it at its current loads.
Dollars projected_processor_cost(const PlacementState& state, int pid) {
  const PriceCatalog& cat = *state.problem().catalog;
  return cat.cost(downgraded_config(cat, state.config(pid),
                                    state.cpu_demand(pid),
                                    state.nic_load(pid)));
}

// Projected cost of processors `a` and `b` merged onto one (analytic: no
// state mutation).  nullopt when no catalog model could host the merge.
std::optional<Dollars> projected_merged_cost(const PlacementState& state,
                                             int a, int b) {
  const PriceCatalog& cat = *state.problem().catalog;
  const OperatorTree& tree = *state.problem().tree;

  const MegaOps cpu = state.cpu_demand(a) + state.cpu_demand(b);
  // Downloads: union of distinct types.
  MBps download = state.download_load(a);
  const auto types_a = state.download_types(a);
  for (int t : state.download_types(b)) {
    if (!std::binary_search(types_a.begin(), types_a.end(), t)) {
      download += tree.catalog().type(t).rate();
    }
  }
  // Comm: the pair's mutual traffic disappears from both cards.
  const MBps mutual = state.pair_traffic(a, b);
  const MBps comm = state.comm_load(a) + state.comm_load(b) - 2.0 * mutual;
  const auto cfg = cat.cheapest_meeting(cpu, download + comm);
  if (!cfg) return std::nullopt;
  return cat.cost(*cfg);
}

// merge_sweep's pre-verdict (see its doc comment): false only when `into`'s
// CPU cannot hold the merged load `merged_cpu` by the rule try_place applies
// to it.  The 1e-9 margin keeps it the more lenient of the two.
bool cpu_may_host(const PlacementState& state, int into, MegaOps merged_cpu) {
  const PriceCatalog& cat = *state.problem().catalog;
  return no_worse(merged_cpu * (1.0 - 1e-9), state.cpu_demand(into),
                  cat.speed(state.config(into)));
}

// refine_placement stops at a fixpoint or after this many passes.
constexpr int kMaxPasses = 8;

bool relocation_pass(PlacementState& state, LocalSearchStats& stats) {
  bool improved = false;
  const OperatorTree& tree = *state.problem().tree;
  for (int op = 0; op < tree.num_operators(); ++op) {
    const int home = state.proc_of(op);
    if (home == kNoNode || state.ops_on(home).size() < 2) continue;
    const Dollars before = projected_downgraded_cost(state);
    // First fit: the operator moves to the first other processor that can
    // host it, and only that move is tried for an improvement.  The scan
    // stops at the commit, so walking the live list it invalidates is safe.
    int target = kNoNode;
    for (int t : state.live_processors()) {
      if (t != home && state.try_place(op, t)) {
        target = t;
        break;
      }
    }
    if (target == kNoNode) continue;
    const Dollars after = projected_downgraded_cost(state);
    if (after < before - 1e-9) {
      ++stats.relocations;
      improved = true;
      continue;
    }
    // Not an improvement: move back (always feasible — the previous
    // state satisfied every constraint).
    const bool restored = state.try_place(op, home);
    (void)restored;
    assert(restored);
  }
  return improved;
}

} // namespace

bool merge_promises_saving(const PlacementState& state, int a, int b) {
  const auto merged = projected_merged_cost(state, a, b);
  if (!merged) return false;
  const Dollars pair_cost = projected_processor_cost(state, a) +
                            projected_processor_cost(state, b);
  return *merged < pair_cost - 1e-9;
}

MergeSweepResult merge_sweep(PlacementState& state) {
  MergeSweepResult result;
  const std::vector<int> procs = state.live_processors();
  for (std::size_t i = 0; i < procs.size(); ++i) {
    for (std::size_t j = i + 1; j < procs.size(); ++j) {
      const int a = procs[i], b = procs[j];
      if (!state.is_live(a) || !state.is_live(b)) continue;
      if (!merge_promises_saving(state, a, b)) continue;
      ++result.tried;
      const MegaOps cpu = state.cpu_demand(a) + state.cpu_demand(b);
      // Prefer moving the lighter processor.
      const int from =
          state.ops_on(a).size() <= state.ops_on(b).size() ? a : b;
      const int to = from == a ? b : a;
      const int moved_fwd = static_cast<int>(state.ops_on(from).size());
      const int moved_rev = static_cast<int>(state.ops_on(to).size());
      if (cpu_may_host(state, to, cpu) &&
          state.try_place(state.ops_on(from), to)) {
        ++result.merges;
        result.ops_moved += moved_fwd;
      } else if (cpu_may_host(state, from, cpu) &&
                 state.try_place(state.ops_on(to), from)) {
        ++result.merges;
        result.ops_moved += moved_rev;
      } else {
        ++result.failed;
      }
    }
  }
  return result;
}

Dollars projected_downgraded_cost(const PlacementState& state) {
  Dollars total = 0.0;
  for (int pid : state.live_processors()) {
    total += projected_processor_cost(state, pid);
  }
  return total;
}

LocalSearchStats refine_placement(PlacementState& state) {
  LocalSearchStats stats;
  stats.projected_cost_before = projected_downgraded_cost(state);
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++stats.passes;
    const int merges = merge_sweep(state).merges;
    stats.merges += merges;
    const bool relocated = relocation_pass(state, stats);
    if (merges == 0 && !relocated) break;
  }
  stats.projected_cost_after = projected_downgraded_cost(state);
  INSP_DEBUG << "local search: " << stats.merges << " merges, "
             << stats.relocations << " relocations, $"
             << stats.projected_cost_before << " -> $"
             << stats.projected_cost_after;
  return stats;
}

} // namespace insp
