// Shared setup for the two event-simulator cores (the sparse core and the
// test-only dense reference, tests/oracles/event_sim_dense.cpp).
// Everything that influences the *semantics* of a simulation — resolved
// config, per-period budgets, starvation from down download routes,
// crossing-edge discovery — is computed here exactly once, so the cores
// can only differ in data layout and per-period mechanics, never in the
// verdict.  Internal header: included by src/sim/*.cpp and the dense
// oracle only.
#pragma once

#include <vector>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "sim/event_sim.hpp"

namespace insp::simdetail {

/// EventSimConfig after auto-derivation and clamping (see the config's
/// field comments for the rules).
struct ResolvedSimConfig {
  int periods = 0;
  int warmup = 0;
  int max_results_ahead = 0;
  double sustained_fraction = 0.99;
  bool degenerate = false;
};

/// One crossing shipment lane: a producer whose result must reach a distinct
/// remote destination processor.  With the DAG model a producer feeding
/// several consumers on one remote processor ships a single copy there
/// (multicast dedup, docs/DESIGN.md §13), so lanes are keyed by
/// (producer, destination processor) — on trees exactly the child->parent
/// edge with child and parent on different processors.
struct CrossingEdge {
  int child_op = -1;
  int proc_u = -1;      ///< sender (producer side)
  int proc_v = -1;      ///< receiver (destination processor)
  int pair_index = -1;  ///< index into link_pair_budget
  MegaBytes volume = 0.0;  ///< max out-edge delta into proc_v
};

/// Everything both cores precompute before the period loop.
struct SimStaticPlan {
  ResolvedSimConfig cfg;
  double period_s = 0.0;
  int n_ops = 0;
  int n_procs = 0;
  /// True when some operator is unassigned — nothing can be simulated; the
  /// caller returns a degenerate all-zero result.
  bool unassigned_ops = false;

  std::vector<int> bottom_up;          ///< op ids, children before parents

  // Per-operator flat tables (indexed by op id) — the sparse core's period
  // loop never touches an OperatorNode.
  std::vector<int> proc;               ///< op -> processor
  std::vector<double> work;            ///< w_i, Mops
  std::vector<int> root_index;         ///< position in tree.roots(), -1 else
  std::vector<char> starved;           ///< needs a type routed via a down server
  /// Consumers (out-edge destinations) of each op in CSR form, declaration
  /// order preserved — the single parent on trees.
  std::vector<int> out_start;          ///< size n_ops + 1
  std::vector<int> out_dst;
  /// Crossing lanes of producer op are the contiguous range
  /// crossing[cross_start[op] .. cross_start[op+1]).
  std::vector<int> cross_start;        ///< size n_ops + 1
  /// Children of each op in CSR form (tree order preserved).
  std::vector<int> child_start;        ///< size n_ops + 1
  std::vector<int> child_list;
  /// Parallel to child_list: index into `crossing` of the lane that feeds
  /// this consumer from that child, or -1 when co-located.
  std::vector<int> child_edge;

  // Per-processor budgets, already scaled to one period.
  std::vector<double> cpu_budget_mops;
  std::vector<MegaBytes> card_comm_budget;

  // Crossing edges and the distinct processor pairs they use.
  std::vector<CrossingEdge> crossing;
  std::vector<MegaBytes> link_pair_budget;  ///< per distinct pair, per period

  // Pipeline depths (periods of latency accumulated on the path to the
  // op's root): fill_depth counts crossing edges as 2 and co-located edges
  // as 1; crossing_depth counts crossing edges only.
  int fill_depth = 0;
  int crossing_depth = 0;
};

/// Builds the plan: budgets, crossing edges, starvation, depth, and the
/// resolved config (which needs the depths for auto-derivation).
SimStaticPlan build_sim_plan(const Problem& problem, const Allocation& alloc,
                             const SimPlatformView& view,
                             const EventSimConfig& config);

/// The shared measurement tail: both cores feed the same per-root counters
/// through this, so the throughput figure and the sustained verdict are
/// computed by one piece of code.
inline EventSimResult finalize_result(
    const Problem& problem, const SimStaticPlan& plan,
    const std::vector<long long>& root_produced,
    const std::vector<long long>& root_produced_at_warmup,
    int first_output_period, int periods_simulated) {
  EventSimResult out;
  out.degenerate_config = plan.cfg.degenerate;
  out.warmup_periods_used = plan.cfg.warmup;
  out.max_results_ahead_used = plan.cfg.max_results_ahead;
  out.first_output_period = first_output_period;
  out.periods_simulated = periods_simulated;
  if (plan.cfg.periods <= 0 || root_produced.empty()) return out;
  const int measured = std::max(1, plan.cfg.periods - plan.cfg.warmup);
  long long min_after_warmup = -1;
  long long total = 0;
  for (std::size_t r = 0; r < root_produced.size(); ++r) {
    // Forests (multi-application): final results are counted at every
    // root; the reported throughput is the slowest root's (each
    // application must meet the common folded target).
    const long long after = root_produced[r] - root_produced_at_warmup[r];
    total += root_produced[r];
    if (min_after_warmup < 0 || after < min_after_warmup) {
      min_after_warmup = after;
    }
  }
  out.results_produced = total;
  out.achieved_throughput = static_cast<double>(std::max<long long>(
                                0, min_after_warmup)) /
                            (static_cast<double>(measured) * plan.period_s);
  out.sustained = out.achieved_throughput >=
                  problem.rho * plan.cfg.sustained_fraction;
  return out;
}

} // namespace insp::simdetail
