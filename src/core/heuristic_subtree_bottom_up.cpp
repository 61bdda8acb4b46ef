#include <algorithm>
#include <map>

#include "core/placement_common.hpp"
#include "core/placement_heuristics.hpp"
#include "tree/tree_stats.hpp"

namespace insp {

namespace {

/// Grow processor `pid` to a fixpoint: pull the consumers of its operators
/// in (from other processors or unassigned), and absorb whole child
/// processors ("merge the operators with their father on a single machine
/// ... possibly returning some processors").
///
/// Worklist form of a round-based rescan of ops_on(pid).  Nothing ever
/// leaves `pid`, so an operator whose steps all succeeded (or were skipped:
/// an unassigned child can later only join `pid`) stays done, and
/// revisiting it is a no-op.  A round therefore visits only the operators
/// whose steps failed last round, then the ones that joined during it, both
/// in join order (ops_on(pid) only grows by appending) — the order a full
/// rescan visits them in, so every probe is the rescan's.  Each successful
/// step adds operators to `pid`; a round without one ends the growth.
void grow_to_fixpoint(PlacementState& state, int pid, std::vector<int>& round,
                      std::vector<int>& retry) {
  const OperatorTree& tree = *state.problem().tree;
  round.assign(state.ops_on(pid).begin(), state.ops_on(pid).end());
  for (;;) {
    const std::size_t seated = state.ops_on(pid).size();
    bool changed = false;
    retry.clear();
    for (int op : round) {
      bool failed = false;
      // Pull every consumer next to its child (the single parent on trees;
      // each sharing parent on a DAG — co-locating all of them makes the
      // shared shipment free).
      for (const OutEdge& e : tree.op(op).out) {
        if (state.proc_of(e.dst) == pid) continue;
        if (state.try_place(e.dst, pid)) {
          changed = true;
        } else {
          failed = true;
        }
      }
      // Absorb whole child processors (subtree consolidation).
      for (int c : tree.op(op).children) {
        const int pc = state.proc_of(c);
        if (pc == kNoNode || pc == pid) continue;
        if (state.try_absorb(pc, pid)) {
          changed = true;
        } else {
          failed = true;
        }
      }
      if (failed) retry.push_back(op);
    }
    if (!changed) return;
    const auto& ops = state.ops_on(pid);
    round.swap(retry);
    round.insert(round.end(),
                 ops.begin() + static_cast<std::ptrdiff_t>(seated), ops.end());
  }
}

/// Final consolidation sweep: repeatedly merge the pair of processors with
/// the largest mutual traffic (selling the emptied one) until no merge is
/// feasible.  Starting from one-processor-per-al-operator, intermediate
/// merge states can wedge on link capacities; this sweep frees them and is
/// what lets SBU approach the optimum the paper reports.
void consolidation_sweep(PlacementState& state) {
  const OperatorTree& tree = *state.problem().tree;
  const auto proc_of = [&](int op) { return state.proc_of(op); };
  for (;;) {
    // Pairwise crossing traffic under the multicast charging rule
    // (OperatorTree::visit_shipments).
    std::map<std::pair<int, int>, MBps> traffic;
    for (const auto& n : tree.operators()) {
      const int a = proc_of(n.id);
      if (a == kNoNode) continue;
      tree.visit_shipments(n.id, a, proc_of, [&](int b, MegaBytes mx) {
        traffic[{std::min(a, b), std::max(a, b)}] += mx;
      });
    }
    std::vector<std::pair<std::pair<int, int>, MBps>> pairs(traffic.begin(),
                                                            traffic.end());
    std::sort(pairs.begin(), pairs.end(),
              [](const auto& x, const auto& y) { return x.second > y.second; });
    bool merged = false;
    for (const auto& [pr, volume] : pairs) {
      (void)volume;
      const auto [a, b] = pr;
      if (!state.is_live(a) || !state.is_live(b)) continue;
      // Move the smaller processor's content into the larger.
      const int from = state.ops_on(a).size() <= state.ops_on(b).size() ? a : b;
      const int to = from == a ? b : a;
      if (state.try_place(state.ops_on(from), to) ||
          state.try_place(state.ops_on(to), from)) {
        merged = true;
        break;
      }
    }
    if (!merged) return;
  }
}

} // namespace

PlacementOutcome place_subtree_bottom_up(PlacementState& state, Rng& /*rng*/) {
  const OperatorTree& tree = *state.problem().tree;
  const auto depths = operator_depths(tree);

  // Phase 1: "acquires as many most expensive processors as there are
  // al-operators and assigns each al-operator to a distinct processor".
  std::vector<int> al_procs;
  for (int al : tree.al_operators()) {
    std::string why;
    const auto pid = place_with_grouping(
        state, al, GroupConfigPolicy::MostExpensiveOnly, &why);
    if (!pid) {
      return {false, "subtree-bottom-up: " + why};
    }
    al_procs.push_back(*pid);
  }

  // Phase 2: bottom-up merging.  Process the al processors deepest-first
  // (their subtrees close first; ties by id) and let each grow to a
  // fixpoint.  A processor's depth is its deepest operator's (-1 once sold),
  // computed once up front; sorting (-depth, pid) pairs gives that order.
  std::vector<std::pair<int, int>> order;
  order.reserve(al_procs.size());
  for (int pid : al_procs) {
    int d = -1;
    if (state.is_live(pid)) {
      d = 0;
      for (int op : state.ops_on(pid)) {
        d = std::max(d, depths[static_cast<std::size_t>(op)]);
      }
    }
    order.emplace_back(-d, pid);
  }
  std::sort(order.begin(), order.end());
  std::vector<int> round, retry;
  for (const auto& entry : order) {
    const int pid = entry.second;
    if (state.is_live(pid)) grow_to_fixpoint(state, pid, round, retry);
  }

  // Phase 3: any operator the merging could not seat (its pulls failed on
  // every processor) gets the literal fallback — join a child's processor,
  // else coalesce the children's processors, else a new most expensive
  // processor ("one or more new processors are acquired").
  for (int op : tree.bottom_up_order()) {
    if (state.proc_of(op) != kNoNode) continue;

    std::vector<int> kids = tree.op(op).children;
    std::sort(kids.begin(), kids.end(), [&](int a, int b) {
      const MegaBytes va = tree.op(a).output_mb, vb = tree.op(b).output_mb;
      if (va != vb) return va > vb;
      return a < b;
    });

    int target = kNoNode;
    // First fit over the children's processors, heaviest edge first.
    for (int k : kids) {
      const int pk = state.proc_of(k);
      if (state.try_place(op, pk)) {
        target = pk;
        break;
      }
    }
    if (target == kNoNode) {
      // Forced coalesce: op plus all other children's processors onto one
      // child processor.
      for (int k : kids) {
        const int pk = state.proc_of(k);
        std::vector<int> group = {op};
        for (int other : kids) {
          const int po = state.proc_of(other);
          if (po == pk) continue;
          const auto& ops = state.ops_on(po);
          group.insert(group.end(), ops.begin(), ops.end());
        }
        if (state.try_place(group, pk)) {
          target = pk;
          break;
        }
      }
    }
    if (target == kNoNode) {
      std::string why;
      const auto pid = place_with_grouping(
          state, op, GroupConfigPolicy::MostExpensiveOnly, &why);
      if (!pid) {
        return {false, "subtree-bottom-up: " + why};
      }
      target = *pid;
    }
  }

  consolidation_sweep(state);
  return {true, ""};
}

} // namespace insp
