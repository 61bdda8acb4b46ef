// Sparse pre-indexed simulator core (and the shared setup both cores use).
//
// The seed implementation walked every operator through tree-node accessors
// and rebuilt an n_procs x n_procs link-budget matrix every period — despite
// a comment claiming it was "lazily sized on demand", it was eagerly
// assigned each iteration, O(P^2 * periods) allocation churn at N=400.  The
// sparse core indexes everything once:
//
//   - crossing edges (child and parent on different processors) are
//     discovered up front; link budgets live in a flat vector keyed by the
//     distinct (u, v) pairs actually crossed, not a dense matrix;
//   - per-operator data (processor, parent, children, work, root position)
//     sits in flat arrays walked in bottom-up order;
//   - the per-period "start of period" snapshot is maintained by a dirty
//     list (operators that computed this period) instead of a full vector
//     copy;
//   - tokens in transit live in two pooled vectors that swap roles each
//     period, so the steady-state period loop performs no heap allocation;
//   - once the period-normalized state repeats, whole cycles are skipped
//     exactly instead of simulated (steady-state fast-forward, DESIGN.md §8).
#include "sim/event_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_sim_internal.hpp"

namespace insp {

namespace simdetail {

namespace {

/// Smallest k with 2^k > d (0 for d == 0): the depth-scaled slack added to
/// the auto-derived backpressure bound.
int log2_slack(int d) {
  int bits = 0;
  for (; d > 0; d >>= 1) ++bits;
  return bits;
}

ResolvedSimConfig resolve_config(const EventSimConfig& config, int fill_depth,
                                 int crossing_depth, int max_edge_skew) {
  ResolvedSimConfig r;
  r.sustained_fraction = config.sustained_fraction;
  r.periods = config.periods;
  if (r.periods <= 0) {
    r.periods = 0;
    r.degenerate = true;
    return r;
  }
  // Out-of-range sentinels (warmup below -1, negative bound) still resolve
  // to the derived defaults, but are flagged: the caller asked for
  // something no one defined.
  if (config.warmup_periods < -1 || config.max_results_ahead < 0) {
    r.degenerate = true;
  }
  // On a DAG, a shared producer feeding both a deep path and a near-root
  // consumer must run fill[p] - fill[c] periods ahead of the shallow edge
  // before the reconvergence point can fire, so the bound must cover the
  // largest such skew or backpressure throttles a feasible plan.  Tree
  // edges have skew 1 (co-located) or 2 (crossing), which the base term
  // always dominates — tree behavior is unchanged.
  r.max_results_ahead =
      config.max_results_ahead > 0
          ? config.max_results_ahead
          : std::max(4 + log2_slack(crossing_depth), max_edge_skew + 2);
  if (config.warmup_periods >= 0) {
    // Explicit warmup: honor it when it leaves a measurement window,
    // otherwise flag the config and measure the whole run.  A pipeline
    // that cannot even fill within the run can never produce a result,
    // so that is flagged too.
    r.warmup = config.warmup_periods;
    if (r.warmup >= r.periods) {
      r.warmup = 0;
      r.degenerate = true;
    }
    if (fill_depth >= r.periods) r.degenerate = true;
  } else {
    // Auto warmup: cover the pipeline fill (a crossing edge adds ~2 periods
    // of latency, a co-located edge 1) plus slack, floor at a quarter of
    // the run, cap at half so at least half the run is measured.
    r.warmup = std::clamp(std::max(r.periods / 4, fill_depth + 16), 0,
                          r.periods / 2);
    if (fill_depth > r.periods / 2) r.degenerate = true;
  }
  return r;
}

} // namespace

SimStaticPlan build_sim_plan(const Problem& problem, const Allocation& alloc,
                             const SimPlatformView& view,
                             const EventSimConfig& config) {
  const OperatorTree& tree = *problem.tree;
  const PriceCatalog& cat = *problem.catalog;

  SimStaticPlan plan;
  plan.period_s = 1.0 / problem.rho;
  plan.n_ops = tree.num_operators();
  plan.n_procs = alloc.num_processors();
  const auto n_ops = static_cast<std::size_t>(plan.n_ops);
  const auto n_procs = static_cast<std::size_t>(plan.n_procs);

  for (int op = 0; op < plan.n_ops; ++op) {
    const int u = alloc.op_to_proc[static_cast<std::size_t>(op)];
    if (u < 0 || u >= plan.n_procs) {
      plan.unassigned_ops = true;
      plan.cfg = resolve_config(config, 0, 0, 0);
      plan.cfg.degenerate = true;
      return plan;
    }
  }

  plan.bottom_up = tree.bottom_up_order();
  plan.proc.resize(n_ops);
  plan.work.resize(n_ops);
  plan.root_index.assign(n_ops, -1);
  plan.starved.assign(n_ops, 0);
  plan.child_start.assign(n_ops + 1, 0);

  for (int op = 0; op < plan.n_ops; ++op) {
    const auto o = static_cast<std::size_t>(op);
    plan.proc[o] = alloc.op_to_proc[o];
    plan.work[o] = tree.op(op).work;
  }
  const auto& roots = tree.roots();
  for (std::size_t r = 0; r < roots.size(); ++r) {
    plan.root_index[static_cast<std::size_t>(roots[r])] = static_cast<int>(r);
  }

  // Children and out-edges (consumers) in CSR form, declaration order
  // preserved.
  for (int op = 0; op < plan.n_ops; ++op) {
    plan.child_start[static_cast<std::size_t>(op) + 1] =
        plan.child_start[static_cast<std::size_t>(op)] +
        static_cast<int>(tree.op(op).children.size());
  }
  plan.child_list.resize(
      static_cast<std::size_t>(plan.child_start[n_ops]));
  for (int op = 0; op < plan.n_ops; ++op) {
    int w = plan.child_start[static_cast<std::size_t>(op)];
    for (int c : tree.op(op).children) {
      plan.child_list[static_cast<std::size_t>(w++)] = c;
    }
  }
  plan.out_start.assign(n_ops + 1, 0);
  for (int op = 0; op < plan.n_ops; ++op) {
    plan.out_start[static_cast<std::size_t>(op) + 1] =
        plan.out_start[static_cast<std::size_t>(op)] +
        static_cast<int>(tree.op(op).out.size());
  }
  plan.out_dst.resize(static_cast<std::size_t>(plan.out_start[n_ops]));
  for (int op = 0; op < plan.n_ops; ++op) {
    int w = plan.out_start[static_cast<std::size_t>(op)];
    for (const OutEdge& e : tree.op(op).out) {
      plan.out_dst[static_cast<std::size_t>(w++)] = e.dst;
    }
  }

  // Crossing lanes: one per shipment of the multicast rule
  // (OperatorTree::visit_shipments), in producer order then first-occurrence
  // destination order — on trees exactly the crossing child->parent edges.
  std::vector<std::pair<int, int>> pairs;
  const auto proc_of = [&](int op) {
    return plan.proc[static_cast<std::size_t>(op)];
  };
  auto each_crossing_lane = [&](auto&& fn) {
    for (int op = 0; op < plan.n_ops; ++op) {
      const int u = proc_of(op);
      tree.visit_shipments(op, u, proc_of, [&](int v, MegaBytes mx) {
        fn(op, u, v, mx);
      });
    }
  };
  each_crossing_lane([&](int /*op*/, int u, int v, MegaBytes /*mx*/) {
    pairs.push_back({std::min(u, v), std::max(u, v)});
  });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  plan.link_pair_budget.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    plan.link_pair_budget[i] =
        view.link_bandwidth(pairs[i].first, pairs[i].second) * plan.period_s;
  }
  each_crossing_lane([&](int op, int u, int v, MegaBytes mx) {
    CrossingEdge edge;
    edge.child_op = op;
    edge.proc_u = u;
    edge.proc_v = v;
    const std::pair<int, int> key{std::min(u, v), std::max(u, v)};
    edge.pair_index = static_cast<int>(
        std::lower_bound(pairs.begin(), pairs.end(), key) - pairs.begin());
    edge.volume = mx;
    plan.crossing.push_back(edge);
  });
  // Lanes are grouped by producer in producer order, so per-producer ranges
  // are a prefix sum over them.
  plan.cross_start.assign(n_ops + 1, 0);
  for (const CrossingEdge& edge : plan.crossing) {
    ++plan.cross_start[static_cast<std::size_t>(edge.child_op) + 1];
  }
  for (std::size_t o = 0; o < n_ops; ++o) {
    plan.cross_start[o + 1] += plan.cross_start[o];
  }
  // Map each (child occurrence, consumer) to the lane that feeds it.
  plan.child_edge.assign(plan.child_list.size(), -1);
  for (int op = 0; op < plan.n_ops; ++op) {
    const int u = plan.proc[static_cast<std::size_t>(op)];
    for (int k = plan.child_start[static_cast<std::size_t>(op)];
         k < plan.child_start[static_cast<std::size_t>(op) + 1]; ++k) {
      const int c = plan.child_list[static_cast<std::size_t>(k)];
      if (plan.proc[static_cast<std::size_t>(c)] == u) continue;
      for (int e = plan.cross_start[static_cast<std::size_t>(c)];
           e < plan.cross_start[static_cast<std::size_t>(c) + 1]; ++e) {
        if (plan.crossing[static_cast<std::size_t>(e)].proc_v == u) {
          plan.child_edge[static_cast<std::size_t>(k)] = e;
          break;
        }
      }
    }
  }

  // Budgets.  The download share follows the seed semantics — distinct
  // *needed* types per processor — except that a type whose download route
  // points at a down server streams nothing: its rate is released and every
  // operator needing it on that processor starves.
  plan.cpu_budget_mops.resize(n_procs);
  plan.card_comm_budget.resize(n_procs);
  const auto needed = needed_types_per_processor(problem, alloc);
  std::vector<std::vector<int>> down_types(n_procs);
  for (std::size_t u = 0; u < n_procs; ++u) {
    const auto& p = alloc.processors[u];
    MBps download = 0.0;
    for (int t : needed[u]) {
      int server = -1;
      for (const DownloadRoute& route : p.downloads) {
        if (route.object_type == t) {
          server = route.server;
          break;
        }
      }
      if (server >= 0 && !view.server_is_up(server)) {
        down_types[u].push_back(t);  // needed[u] is sorted, so this is too
      } else {
        download += tree.catalog().type(t).rate();
      }
    }
    plan.cpu_budget_mops[u] = cat.speed(p.config) * plan.period_s;
    // Downloads stream continuously and occupy a fixed share of the card;
    // the remainder is available for inter-processor traffic each period.
    plan.card_comm_budget[u] =
        std::max(0.0, (cat.bandwidth(p.config) - download) * plan.period_s);
  }
  for (int op = 0; op < plan.n_ops; ++op) {
    const auto& down =
        down_types[static_cast<std::size_t>(
            plan.proc[static_cast<std::size_t>(op)])];
    if (down.empty()) continue;
    for (int t : tree.object_types_of(op)) {
      if (std::binary_search(down.begin(), down.end(), t)) {
        plan.starved[static_cast<std::size_t>(op)] = 1;
        break;
      }
    }
  }

  // Pipeline depths, walked consumers-before-producers: the latency an op's
  // result accumulates on its way to a root is the max over its out-edges
  // (a crossing edge costs ~2 periods, a co-located edge 1).
  std::vector<int> fill(n_ops, 0);
  std::vector<int> cross(n_ops, 0);
  for (int op : tree.top_down_order()) {
    const auto& out = tree.op(op).out;
    if (out.empty()) continue;
    const int u = plan.proc[static_cast<std::size_t>(op)];
    int f = 0, cr = 0;
    for (const OutEdge& e : out) {
      const bool crossing =
          plan.proc[static_cast<std::size_t>(e.dst)] != u;
      f = std::max(f, fill[static_cast<std::size_t>(e.dst)] +
                          (crossing ? 2 : 1));
      cr = std::max(cr, cross[static_cast<std::size_t>(e.dst)] +
                            (crossing ? 1 : 0));
    }
    fill[static_cast<std::size_t>(op)] = f;
    cross[static_cast<std::size_t>(op)] = cr;
    plan.fill_depth = std::max(plan.fill_depth, f);
    plan.crossing_depth = std::max(plan.crossing_depth, cr);
  }
  // Largest producer-consumer depth gap across any single edge: always
  // 1 or 2 on trees, but a shared node's edge to a near-root consumer can
  // skip arbitrarily many pipeline stages.
  int max_edge_skew = 0;
  for (int op = 0; op < plan.n_ops; ++op) {
    for (const OutEdge& e : tree.op(op).out) {
      max_edge_skew =
          std::max(max_edge_skew, fill[static_cast<std::size_t>(op)] -
                                      fill[static_cast<std::size_t>(e.dst)]);
    }
  }

  plan.cfg = resolve_config(config, plan.fill_depth, plan.crossing_depth,
                            max_edge_skew);
  return plan;
}

} // namespace simdetail

namespace {

using simdetail::SimStaticPlan;

/// One intermediate result in transit over a crossing lane.
struct Token {
  int edge;             ///< index into plan.crossing
  MegaBytes remaining;  ///< MB still to transfer
  int eligible_period;  ///< pipelining: send starts the period after compute
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Brent's cycle detection over the simulator's state at period boundaries,
/// normalized by the period (DESIGN.md §8): result counters as offsets from
/// the period, partial progress and token payloads by bit pattern, tokens in
/// FIFO order with their eligibility relative to the period.  One saved
/// snapshot is compared against every boundary and re-saved at power-of-two
/// distances, so a transient of mu periods and a cycle of L periods are
/// found after at most ~2 max(mu, L) + L boundaries.
class CycleDetector {
 public:
  /// Feeds the state at the start of `period`; returns the cycle length L
  /// once it equals the saved snapshot L periods later, else 0.
  int observe(int period, const std::vector<double>& computed,
              const std::vector<double>& delivered,
              const std::vector<double>& progress,
              const std::vector<Token>& in_transit) {
    if (saved_period_ < 0) {
      save(period, computed, delivered, progress, in_transit);
      return 0;
    }
    const int distance = period - saved_period_;
    if (matches(period, computed, delivered, progress, in_transit)) {
      return distance;
    }
    if (distance == power_) {
      save(period, computed, delivered, progress, in_transit);
      power_ *= 2;
    }
    return 0;
  }

 private:
  void save(int period, const std::vector<double>& computed,
            const std::vector<double>& delivered,
            const std::vector<double>& progress,
            const std::vector<Token>& in_transit) {
    saved_period_ = period;
    const double p = static_cast<double>(period);
    computed_.resize(computed.size());
    for (std::size_t o = 0; o < computed.size(); ++o) {
      computed_[o] = computed[o] - p;
    }
    delivered_.resize(delivered.size());
    for (std::size_t e = 0; e < delivered.size(); ++e) {
      delivered_[e] = delivered[e] - p;
    }
    progress_ = progress;
    tokens_ = in_transit;
    for (Token& t : tokens_) t.eligible_period -= period;
  }

  /// Cheapest mismatches first: during the transient the token count or a
  /// not-yet-steady counter almost always differs.
  bool matches(int period, const std::vector<double>& computed,
               const std::vector<double>& delivered,
               const std::vector<double>& progress,
               const std::vector<Token>& in_transit) const {
    if (in_transit.size() != tokens_.size()) return false;
    const double p = static_cast<double>(period);
    for (std::size_t o = 0; o < computed.size(); ++o) {
      if (computed[o] - p != computed_[o]) return false;
    }
    for (std::size_t e = 0; e < delivered.size(); ++e) {
      if (delivered[e] - p != delivered_[e]) return false;
    }
    for (std::size_t o = 0; o < progress.size(); ++o) {
      if (!same_bits(progress[o], progress_[o])) return false;
    }
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      const Token& t = in_transit[i];
      if (t.edge != tokens_[i].edge ||
          t.eligible_period - period != tokens_[i].eligible_period ||
          !same_bits(t.remaining, tokens_[i].remaining)) {
        return false;
      }
    }
    return true;
  }

  int saved_period_ = -1;
  int power_ = 1;
  std::vector<double> computed_, delivered_, progress_;
  std::vector<Token> tokens_;
};

EventSimResult run_sparse(const Problem& problem, const SimStaticPlan& plan) {
  const OperatorTree& tree = *problem.tree;
  const auto n_ops = static_cast<std::size_t>(plan.n_ops);
  const std::size_t n_roots = tree.roots().size();

  std::vector<long long> root_produced(n_roots, 0);
  std::vector<long long> root_at_warmup(n_roots, 0);
  int first_output_period = -1;

  if (plan.cfg.periods <= 0 || plan.unassigned_ops) {
    return simdetail::finalize_result(problem, plan, {}, {}, -1, 0);
  }

  // Result counters live in doubles: every value is an exact integer far
  // below 2^53, so min/max/compare arithmetic on them is exact.
  std::vector<double> computed(n_ops, 0.0);  ///< #results finished per op
  std::vector<double> computed_at_start(n_ops, 0.0);
  /// #results landed per crossing lane (usable by that lane's consumers).
  std::vector<double> delivered(plan.crossing.size(), 0.0);
  std::vector<double> progress(n_ops, 0.0);   ///< Mops spent on current result
  std::vector<int> dirty;  ///< ops whose computed changed this period
  dirty.reserve(n_ops);

  // The catch-up loop's three break conditions (one result per period,
  // backpressure toward the consumers, inputs ready) only read counters
  // that are FROZEN during the compute phase (computed_at_start folds at
  // end of period, delivered moves in the transfer phase).  So they
  // collapse into one precomputed per-op bound:
  //
  //   caps[o] = min(period + 1,
  //                 min over consumers of computed_at_start[dst] + bound
  //                                                     (+inf for roots),
  //                 min over children of have[c]         (+inf for leaves))
  //
  // and the walk below progresses exactly while computed[o] < caps[o] —
  // bit-identical to the seed's per-iteration checks (integer-exact
  // doubles, min/max tie values equal; on trees the consumer min is just
  // the parent).
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> in_cap(n_ops, kInf);  ///< leaves stay +inf forever
  std::vector<double> caps(n_ops, 0.0);

  std::vector<double> cpu_left;
  cpu_left.reserve(plan.cpu_budget_mops.size());
  std::vector<MegaBytes> card_left(plan.card_comm_budget.size(), 0.0);
  std::vector<MegaBytes> pair_left(plan.link_pair_budget.size(), 0.0);

  // Processors touched by crossing traffic: the only card budgets the
  // transfer phase reads, hence the only ones worth resetting per period.
  std::vector<int> active_procs;
  {
    std::vector<char> seen(plan.card_comm_budget.size(), 0);
    for (const auto& edge : plan.crossing) {
      for (int p : {edge.proc_u, edge.proc_v}) {
        if (!seen[static_cast<std::size_t>(p)]) {
          seen[static_cast<std::size_t>(p)] = 1;
          active_procs.push_back(p);
        }
      }
    }
  }

  // Pooled token storage: in_transit/next swap roles each period, so the
  // steady-state loop allocates nothing once their capacity settles.
  std::vector<Token> in_transit, next_transit;
  const std::size_t token_capacity =
      plan.crossing.size() *
      (static_cast<std::size_t>(plan.cfg.max_results_ahead) + 2);
  in_transit.reserve(token_capacity);
  next_transit.reserve(token_capacity);

  // Steady-state fast-forward (DESIGN.md §8).  Once the normalized boundary
  // state repeats after L periods, every later period is the one L earlier
  // shifted by L, so whole cycles are skipped by adding a multiple of L to
  // every counter.  A jump lands at most on the next boundary the
  // measurement reads — the warmup snapshot, then the end of the window —
  // and the remainder is simulated.  No repeat: the full window runs.
  // Detection starts once every root has produced: a repeat needs every
  // counter to advance, so no earlier boundary can match.
  CycleDetector detector;
  int cycle = 0;  ///< detected cycle length in periods (0: none yet)
  int simulated = 0;
  std::size_t roots_started = 0;  ///< roots with at least one output

  const int bound = plan.cfg.max_results_ahead;
  for (int period = 0; period < plan.cfg.periods; ++period) {
    if (cycle == 0 && roots_started == n_roots) {
      cycle = detector.observe(period, computed, delivered, progress,
                               in_transit);
    }
    if (cycle > 0) {
      // At the warmup boundary itself the target stays put until the
      // snapshot below is taken.
      const int target =
          period <= plan.cfg.warmup ? plan.cfg.warmup : plan.cfg.periods;
      const int shift = (target - period) / cycle * cycle;
      if (shift > 0) {
        // computed_at_start equals computed at a boundary, and each root's
        // output count equals its computed counter, so all move together.
        const double dshift = static_cast<double>(shift);
        for (std::size_t o = 0; o < n_ops; ++o) {
          computed[o] += dshift;
          computed_at_start[o] += dshift;
        }
        for (double& d : delivered) d += dshift;
        for (long long& r : root_produced) r += shift;
        for (Token& t : in_transit) t.eligible_period += shift;
        period += shift;
        if (period == plan.cfg.periods) break;
      }
    }
    if (period == plan.cfg.warmup) root_at_warmup = root_produced;
    ++simulated;

    // ---- Compute phase (start-of-period snapshot: one-period stage
    //      latency, matching the paper's pipelined execution model). -------
    // Inputs-ready bound per op: min over children of the frozen counter
    // the child feeds through (same-processor results via the snapshot,
    // crossing results via the child's lane into this processor).  Scalar
    // CSR pass; leaves keep +inf.
    for (std::size_t o = 0; o < n_ops; ++o) {
      const int kb = plan.child_start[o];
      const int ke = plan.child_start[o + 1];
      if (kb == ke) continue;
      double m = kInf;
      for (int k = kb; k < ke; ++k) {
        const int lane = plan.child_edge[static_cast<std::size_t>(k)];
        const double have =
            lane < 0
                ? computed_at_start[static_cast<std::size_t>(
                      plan.child_list[static_cast<std::size_t>(k)])]
                : delivered[static_cast<std::size_t>(lane)];
        m = have < m ? have : m;
      }
      in_cap[o] = m;
    }
    // Per-op cap: one result per period, backpressure toward the slowest
    // consumer, inputs ready.  Scalar over the out CSR (the retired
    // gather/blend kernel lost to this autovectorized form; see
    // ROADMAP.md).
    {
      const double period_cap = static_cast<double>(period) + 1.0;
      const double dbound = static_cast<double>(bound);
      for (std::size_t o = 0; o < n_ops; ++o) {
        const int ob = plan.out_start[o];
        const int oe = plan.out_start[o + 1];
        double bp = kInf;
        for (int k = ob; k < oe; ++k) {
          const double cas = computed_at_start[static_cast<std::size_t>(
              plan.out_dst[static_cast<std::size_t>(k)])];
          bp = cas < bp ? cas : bp;
        }
        double cap = period_cap;
        const double bpb = bp + dbound;  // inf + bound == inf
        cap = bpb < cap ? bpb : cap;
        cap = in_cap[o] < cap ? in_cap[o] : cap;
        caps[o] = cap;
      }
    }
    cpu_left = plan.cpu_budget_mops;
    for (int op : plan.bottom_up) {
      const auto o = static_cast<std::size_t>(op);
      if (plan.starved[o]) continue;  // its basic object never arrives
      const auto u = static_cast<std::size_t>(plan.proc[o]);
      double& budget = cpu_left[u];
      const MegaOps w = plan.work[o];
      const double cap = caps[o];
      // Catch-up is allowed: an operator may complete several pending
      // results in one period if its CPU share and inputs permit.
      while (computed[o] < cap) {
        if (budget <= 0.0) break;
        // Partial progress carries across periods: a heavyweight operator
        // accumulates CPU over several periods instead of losing budget
        // remainders to fragmentation.
        double& done = progress[o];
        const double spend = std::min(w - done, budget);
        budget -= spend;
        done += spend;
        if (done < w - 1e-9) break;  // result not finished this period
        done = 0.0;
        if (computed[o] == computed_at_start[o]) dirty.push_back(op);
        computed[o] += 1.0;
        if (plan.root_index[o] >= 0) {
          if (++root_produced[static_cast<std::size_t>(plan.root_index[o])] ==
              1) {
            ++roots_started;
          }
          if (first_output_period < 0) first_output_period = period;
        } else {
          // One shipment per crossing lane: remote consumers sharing a
          // destination processor ride a single copy (lane volume is the
          // max delta among them).
          for (int e = plan.cross_start[o]; e < plan.cross_start[o + 1];
               ++e) {
            in_transit.push_back(
                Token{e, plan.crossing[static_cast<std::size_t>(e)].volume,
                      period + 1});
          }
        }
        // Co-located consumers see the result next period via
        // computed_at_start[]; nothing to enqueue.
      }
    }

    // ---- Transfer phase: FIFO over tokens, budgets on sender card,
    //      receiver card, and the pairwise link (bounded multi-port). ------
    for (int p : active_procs) {
      card_left[static_cast<std::size_t>(p)] =
          plan.card_comm_budget[static_cast<std::size_t>(p)];
    }
    pair_left = plan.link_pair_budget;
    next_transit.clear();
    for (Token& token : in_transit) {
      if (token.eligible_period > period) {
        next_transit.push_back(token);
        continue;
      }
      const auto& edge = plan.crossing[static_cast<std::size_t>(token.edge)];
      MegaBytes& su = card_left[static_cast<std::size_t>(edge.proc_u)];
      MegaBytes& sv = card_left[static_cast<std::size_t>(edge.proc_v)];
      MegaBytes& sl = pair_left[static_cast<std::size_t>(edge.pair_index)];
      const MegaBytes amount = std::min({token.remaining, su, sv, sl});
      if (amount > 0.0) {
        token.remaining -= amount;
        su -= amount;
        sv -= amount;
        sl -= amount;
      }
      if (token.remaining <= 1e-9) {
        // Delivered: usable by the lane's consumers from the next period on
        // (the delivered[] counter is only read in the next compute phase).
        delivered[static_cast<std::size_t>(token.edge)] += 1.0;
      } else {
        next_transit.push_back(token);
      }
    }
    std::swap(in_transit, next_transit);

    // ---- End of period: fold this period's completions into the
    //      start-of-next-period snapshot (dirty list, not a full copy). ----
    for (int op : dirty) {
      computed_at_start[static_cast<std::size_t>(op)] =
          computed[static_cast<std::size_t>(op)];
    }
    dirty.clear();
  }

  return simdetail::finalize_result(problem, plan, root_produced,
                                    root_at_warmup, first_output_period,
                                    simulated);
}

} // namespace

EventSimResult simulate_allocation(const Problem& problem,
                                   const Allocation& alloc,
                                   const EventSimConfig& config) {
  return simulate_allocation(problem, alloc,
                             SimPlatformView::uniform(*problem.platform),
                             config);
}

EventSimResult simulate_allocation(const Problem& problem,
                                   const Allocation& alloc,
                                   const SimPlatformView& view,
                                   const EventSimConfig& config) {
  const SimStaticPlan plan =
      simdetail::build_sim_plan(problem, alloc, view, config);
  return run_sparse(problem, plan);
}

} // namespace insp
