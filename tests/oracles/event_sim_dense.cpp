// Dense reference implementation of the event simulator: the seed-era data
// layout, kept as the oracle for the differential test suite
// (tests/sim/sim_differential_test.cpp) and the baseline bench_sim_speed
// measures the sparse core against.
//
// It deliberately preserves the seed's per-period costs — a full
// n_procs x n_procs link-budget matrix assigned every period, a full
// computed[] snapshot copy, deque-based token queues, tree-node accessor
// walks — while sharing every piece of *semantics* (resolved config, per
// period budgets, down-route starvation, the measurement tail) with the
// sparse core through sim/event_sim_internal.hpp.  The differential suite
// requires the two cores to agree bit-exactly.
#include <algorithm>
#include <deque>
#include <vector>

#include "oracles/event_sim_dense.hpp"
#include "sim/event_sim_internal.hpp"

namespace insp {

namespace {

/// One intermediate result in transit over a crossing lane.
struct DenseToken {
  int edge;             ///< index into plan.crossing
  MegaBytes remaining;  ///< MB still to transfer
  int eligible_period;  ///< pipelining: send starts the period after compute
};

} // namespace

EventSimResult simulate_allocation_dense_reference(
    const Problem& problem, const Allocation& alloc,
    const SimPlatformView& view, const EventSimConfig& config) {
  const simdetail::SimStaticPlan plan =
      simdetail::build_sim_plan(problem, alloc, view, config);
  const OperatorTree& tree = *problem.tree;
  const auto n_ops = static_cast<std::size_t>(plan.n_ops);
  const auto n_procs = static_cast<std::size_t>(plan.n_procs);

  if (plan.cfg.periods <= 0 || plan.unassigned_ops) {
    return simdetail::finalize_result(problem, plan, {}, {}, -1, 0);
  }

  const auto bottom_up = tree.bottom_up_order();
  std::vector<long long> computed(n_ops, 0);
  std::vector<long long> delivered(plan.crossing.size(), 0);  ///< per lane
  std::vector<double> progress(n_ops, 0.0);
  std::deque<DenseToken> in_transit;

  const std::size_t n_roots = tree.roots().size();
  std::vector<long long> root_produced(n_roots, 0);
  std::vector<long long> root_at_warmup(n_roots, 0);
  int first_output_period = -1;

  const int bound = plan.cfg.max_results_ahead;
  for (int period = 0; period < plan.cfg.periods; ++period) {
    if (period == plan.cfg.warmup) root_at_warmup = root_produced;

    // ---- Compute phase: full snapshot copy every period. -----------------
    const std::vector<long long> computed_at_start = computed;
    std::vector<double> cpu_left = plan.cpu_budget_mops;
    for (int op : bottom_up) {
      if (plan.starved[static_cast<std::size_t>(op)]) continue;
      const int u = alloc.op_to_proc[static_cast<std::size_t>(op)];
      double& budget = cpu_left[static_cast<std::size_t>(u)];
      const MegaOps w = tree.op(op).work;
      for (;;) {
        const long long r = computed[static_cast<std::size_t>(op)];
        if (r > period) break;  // basic objects update once per period
        // Backpressure toward the slowest consumer (the single parent on
        // trees).
        bool throttled = false;
        for (const OutEdge& e : tree.op(op).out) {
          if (r >= computed_at_start[static_cast<std::size_t>(e.dst)] +
                       bound) {
            throttled = true;
            break;
          }
        }
        if (throttled) break;
        bool inputs_ready = true;
        const int kb = plan.child_start[static_cast<std::size_t>(op)];
        for (std::size_t ci = 0; ci < tree.op(op).children.size(); ++ci) {
          const int c = tree.op(op).children[ci];
          const int lane =
              plan.child_edge[static_cast<std::size_t>(kb) + ci];
          const long long have =
              lane < 0 ? computed_at_start[static_cast<std::size_t>(c)]
                       : delivered[static_cast<std::size_t>(lane)];
          if (have < r + 1) {
            inputs_ready = false;
            break;
          }
        }
        if (!inputs_ready || budget <= 0.0) break;
        double& done = progress[static_cast<std::size_t>(op)];
        const double spend = std::min(w - done, budget);
        budget -= spend;
        done += spend;
        if (done < w - 1e-9) break;
        done = 0.0;
        ++computed[static_cast<std::size_t>(op)];
        const int root_idx = plan.root_index[static_cast<std::size_t>(op)];
        if (root_idx >= 0) {
          ++root_produced[static_cast<std::size_t>(root_idx)];
          if (first_output_period < 0) first_output_period = period;
        } else {
          // One shipment per crossing lane (remote consumers sharing a
          // destination processor ride one copy).
          for (int e = plan.cross_start[static_cast<std::size_t>(op)];
               e < plan.cross_start[static_cast<std::size_t>(op) + 1];
               ++e) {
            in_transit.push_back(DenseToken{
                e, plan.crossing[static_cast<std::size_t>(e)].volume,
                period + 1});
          }
        }
      }
    }

    // ---- Transfer phase: dense pairwise budget matrix, rebuilt every
    //      period (the allocation churn the sparse core eliminates). -------
    std::vector<MegaBytes> card_left = plan.card_comm_budget;
    std::vector<std::vector<MegaBytes>> link_left;
    link_left.assign(
        n_procs,
        std::vector<MegaBytes>(n_procs, view.default_link_bandwidth() *
                                            plan.period_s));
    for (const auto& edge : plan.crossing) {
      link_left[static_cast<std::size_t>(std::min(edge.proc_u, edge.proc_v))]
               [static_cast<std::size_t>(std::max(edge.proc_u, edge.proc_v))] =
          plan.link_pair_budget[static_cast<std::size_t>(edge.pair_index)];
    }
    std::deque<DenseToken> still;
    for (DenseToken& token : in_transit) {
      if (token.eligible_period > period) {
        still.push_back(token);
        continue;
      }
      const auto& edge = plan.crossing[static_cast<std::size_t>(token.edge)];
      const int u = edge.proc_u;
      const int v = edge.proc_v;
      MegaBytes& su = card_left[static_cast<std::size_t>(u)];
      MegaBytes& sv = card_left[static_cast<std::size_t>(v)];
      MegaBytes& sl = link_left[static_cast<std::size_t>(std::min(u, v))]
                               [static_cast<std::size_t>(std::max(u, v))];
      const MegaBytes amount = std::min({token.remaining, su, sv, sl});
      if (amount > 0.0) {
        token.remaining -= amount;
        su -= amount;
        sv -= amount;
        sl -= amount;
      }
      if (token.remaining <= 1e-9) {
        ++delivered[static_cast<std::size_t>(token.edge)];
      } else {
        still.push_back(token);
      }
    }
    in_transit = std::move(still);
  }

  return simdetail::finalize_result(problem, plan, root_produced,
                                    root_at_warmup, first_output_period,
                                    plan.cfg.periods);
}

} // namespace insp
