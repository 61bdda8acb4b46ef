#include "oracles/ablation_variants.hpp"

#include <algorithm>

#include "core/placement_common.hpp"

namespace insp {

PlacementOutcome place_subtree_bottom_up_no_coalesce(PlacementState& state,
                                                     Rng& /*rng*/) {
  const OperatorTree& tree = *state.problem().tree;

  for (int al : tree.al_operators()) {
    std::string why;
    if (!place_with_grouping(state, al, GroupConfigPolicy::MostExpensiveOnly,
                             &why)) {
      return {false, "sbu-no-coalesce: " + why};
    }
  }

  for (int op : tree.bottom_up_order()) {
    if (state.proc_of(op) != kNoNode) continue;
    std::vector<int> kids = tree.op(op).children;
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      const MegaBytes va = tree.op(a).output_mb, vb = tree.op(b).output_mb;
      if (va != vb) return va > vb;
      return a < b;
    });
    bool placed = false;
    for (int k : kids) {
      if (state.try_place({op}, state.proc_of(k))) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      std::string why;
      if (!place_with_grouping(state, op, GroupConfigPolicy::MostExpensiveOnly,
                               &why)) {
        return {false, "sbu-no-coalesce: " + why};
      }
    }
  }
  return {true, ""};
}

PlacementOutcome place_random_pair_grouping(PlacementState& state, Rng& rng) {
  const PriceCatalog& cat = *state.problem().catalog;
  while (state.num_unassigned() > 0) {
    const auto unassigned = state.unassigned_ops();
    const int op = unassigned[rng.index(unassigned.size())];

    auto buy_cheapest_for = [&](const std::vector<int>& group) {
      for (const auto& cfg : cat.by_cost()) {
        const int pid = state.buy(cfg);
        if (state.try_place(group, pid)) return true;
        state.sell(pid);
      }
      return false;
    };

    if (buy_cheapest_for({op})) continue;
    // Literal pair grouping: the neighbor with the most demanding edge (the
    // first one on a tie).
    int partner = -1;
    MBps partner_volume = 0.0;
    state.visit_neighbors(op, [&](int nb, MBps volume) {
      if (partner < 0 || volume > partner_volume) {
        partner = nb;
        partner_volume = volume;
      }
    });
    if (partner < 0) {
      return {false, "random-pair: isolated operator fits nowhere"};
    }
    if (!buy_cheapest_for({op, partner})) {
      return {false, "random-pair: pair around op " + std::to_string(op) +
                         " fits on no processor"};
    }
  }
  return {true, ""};
}

} // namespace insp
