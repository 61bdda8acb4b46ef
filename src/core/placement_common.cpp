#include "core/placement_common.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace insp {

namespace {

/// Neighbors of the group not yet in it, with the connecting edge volume;
/// when several edges reach the same neighbor the largest volume counts.
std::vector<std::pair<int, MBps>> group_frontier(
    const PlacementState& state, const std::vector<int>& group) {
  std::vector<std::pair<int, MBps>> frontier;
  auto in_group = [&](int op) {
    return std::find(group.begin(), group.end(), op) != group.end();
  };
  for (int member : group) {
    state.visit_neighbors(member, [&](int nb, MBps volume) {
      if (in_group(nb)) return;
      auto it = std::find_if(frontier.begin(), frontier.end(),
                             [&](const auto& f) { return f.first == nb; });
      if (it == frontier.end()) {
        frontier.emplace_back(nb, volume);
      } else {
        it->second = std::max(it->second, volume);
      }
    });
  }
  return frontier;
}

bool try_buy_and_place(PlacementState& state, const std::vector<int>& group,
                       GroupConfigPolicy policy, int* out_pid) {
  const PriceCatalog& cat = *state.problem().catalog;
  if (policy == GroupConfigPolicy::MostExpensiveOnly) {
    const int pid = state.buy(cat.most_expensive());
    if (state.try_place(group, pid)) {
      *out_pid = pid;
      return true;
    }
    state.sell(pid);
    return false;
  }
  // Cheapest-first config scan, batched: one journal baseline judges every
  // catalog configuration at once, and only the winner's processor is
  // actually bought (the scalar loop paid a full probe per configuration and
  // burned a processor id per rejection).
  const auto& configs = cat.by_cost();
  std::vector<unsigned char> verdicts;
  state.can_place_on_new_batch(group, configs, verdicts);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (!verdicts[c]) continue;
    const int pid = state.buy(configs[c]);
    if (state.try_place(group, pid)) {
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
  std::vector<int> group = {seed};
  for (;;) {
    int pid = -1;
    if (try_buy_and_place(state, group, policy, &pid)) {
      return pid;
    }
    // Grow the group along the most demanding communication edge
    // (paper: "chosen so that it has the most demanding communication
    // requirements with op, in an attempt to reduce communication overhead").
    const auto frontier = group_frontier(state, group);
    if (frontier.empty()) {
      if (why) {
        *why = "operator group around " + std::to_string(seed) +
               " (size " + std::to_string(group.size()) +
               ") fits on no purchasable processor";
      }
      return std::nullopt;
    }
    const auto grow = *std::max_element(
        frontier.begin(), frontier.end(), [](const auto& a, const auto& b) {
          if (a.second != b.second) return a.second < b.second;
          return a.first > b.first;  // tie: smaller id wins
        });
    INSP_DEBUG << "grouping: adding op " << grow.first << " (edge "
               << grow.second << " MB/s) to group of " << group.size();
    group.push_back(grow.first);
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
