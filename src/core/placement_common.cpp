#include "core/placement_common.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace insp {

namespace {

/// Buys the first configuration of `configs` (in order) that the lifted
/// group's verdicts admit and that try_place confirms.  Ends the lift
/// before the first purchase; the caller's next lift_member re-lifts.
bool try_buy_and_place(PlacementState& state, const ProcessorConfig* configs,
                       std::size_t n, int* out_pid) {
  const auto& verdicts = state.lifted_verdicts(configs, n);
  for (std::size_t c = 0; c < n; ++c) {
    if (!verdicts[c]) continue;
    state.end_group_lift();
    const int pid = state.buy(configs[c]);
    if (state.try_place(state.lifted_group(), pid)) {
      *out_pid = pid;
      return true;
    }
    state.sell(pid);
  }
  return false;
}

} // namespace

std::optional<int> place_with_grouping(PlacementState& state, int seed,
                                       GroupConfigPolicy policy,
                                       std::string* why) {
  const PriceCatalog& cat = *state.problem().catalog;
  const ProcessorConfig top = cat.most_expensive();
  const bool cheapest_first = policy == GroupConfigPolicy::CheapestFirst;
  const ProcessorConfig* configs =
      cheapest_first ? cat.by_cost().data() : &top;
  const std::size_t num_configs = cheapest_first ? cat.by_cost().size() : 1;

  state.begin_group_lift();
  state.lift_member(seed);
  for (;;) {
    int pid = -1;
    if (try_buy_and_place(state, configs, num_configs, &pid)) return pid;
    // Grow the group along the most demanding communication edge
    // (paper: "chosen so that it has the most demanding communication
    // requirements with op, in an attempt to reduce communication overhead").
    MBps volume = 0.0;
    const int grow = state.heaviest_group_neighbor(&volume);
    if (grow == kNoNode) {
      state.end_group_lift();
      if (why) {
        *why = "operator group around " + std::to_string(seed) + " (size " +
               std::to_string(state.lifted_group().size()) +
               ") fits on no purchasable processor";
      }
      return std::nullopt;
    }
    INSP_DEBUG << "grouping: adding op " << grow << " (edge " << volume
               << " MB/s) to group of " << state.lifted_group().size();
    state.lift_member(grow);
  }
}

std::vector<int> ops_by_work_desc(const OperatorTree& tree) {
  std::vector<int> order(static_cast<std::size_t>(tree.num_operators()));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const MegaOps wa = tree.op(a).work, wb = tree.op(b).work;
    if (wa != wb) return wa > wb;
    return a < b;
  });
  return order;
}

} // namespace insp
