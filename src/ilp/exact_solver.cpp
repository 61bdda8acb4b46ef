#include "ilp/exact_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "core/allocator.hpp"
#include "core/downgrade.hpp"
#include "core/placement_common.hpp"
#include "core/placement_state.hpp"
#include "core/server_selection.hpp"
#include "core/strategy_registry.hpp"
#include "ilp/bounds.hpp"
#include "ilp/exact_solver_internal.hpp"
#include "net/bandwidth_ledger.hpp"
#include "util/rng.hpp"

namespace insp {

std::string ExactResult::describe() const {
  std::ostringstream out;
  switch (status) {
    case ExactStatus::Optimal: out << "optimal"; break;
    case ExactStatus::Infeasible: out << "infeasible"; break;
    case ExactStatus::BudgetExhausted: out << "budget-exhausted"; break;
  }
  if (cost) out << " cost=$" << *cost;
  out << " nodes=" << nodes_visited;
  return out.str();
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Backtracking router over (processor, type) download demands.
class ExactRouter {
 public:
  ExactRouter(const Problem& problem, const Allocation& alloc)
      : problem_(problem), alloc_(alloc) {
    const auto needed = needed_types_per_processor(problem, alloc);
    for (std::size_t u = 0; u < needed.size(); ++u) {
      for (int t : needed[u]) {
        demands_.push_back({static_cast<int>(u), t});
      }
    }
    // Hardest demands first: fewest hosting servers, then largest rate.
    std::sort(demands_.begin(), demands_.end(), [&](const auto& a,
                                                    const auto& b) {
      const std::size_t ha = problem_.platform->servers_with(a.second).size();
      const std::size_t hb = problem_.platform->servers_with(b.second).size();
      if (ha != hb) return ha < hb;
      const MBps ra = rate(a.second), rb = rate(b.second);
      if (ra != rb) return ra > rb;
      if (a.second != b.second) return a.second < b.second;
      return a.first < b.first;
    });
    std::vector<MBps> caps;
    for (int l = 0; l < problem_.platform->num_servers(); ++l) {
      caps.push_back(problem_.platform->server(l).card_bandwidth);
    }
    cards_ = CardLedger(std::move(caps));
    links_ = LinkLedger(problem_.platform->link_server_proc());
  }

  bool solve(std::vector<int>* out_servers) {
    out_servers->assign(demands_.size(), -1);
    return dfs(0, out_servers);
  }

  const std::vector<std::pair<int, int>>& demands() const { return demands_; }

 private:
  MBps rate(int type) const {
    return problem_.tree->catalog().type(type).rate();
  }

  bool dfs(std::size_t i, std::vector<int>* out) {
    if (i == demands_.size()) return true;
    const auto [proc, type] = demands_[i];
    const MBps r = rate(type);
    for (int s : problem_.platform->servers_with(type)) {
      if (!cards_.can_add(s, r) || !links_.can_add(s, proc, r)) continue;
      cards_.add(s, r);
      links_.add(s, proc, r);
      (*out)[i] = s;
      if (dfs(i + 1, out)) return true;
      cards_.remove(s, r);
      links_.remove(s, proc, r);
      (*out)[i] = -1;
    }
    return false;
  }

  const Problem& problem_;
  const Allocation& alloc_;
  std::vector<std::pair<int, int>> demands_;  // (proc, type)
  CardLedger cards_;
  LinkLedger links_;
};

/// The incremental branch-and-bound (docs/DESIGN.md §14): one live
/// PlacementState, touched-set verdicts for child expansion, composite root
/// bound plus a CPU+NIC partial bound with a remaining-work processor
/// charge, and registry-heuristic incumbent seeding.
class IncrementalSearch {
 public:
  IncrementalSearch(const Problem& problem, const ExactSolverConfig& config)
      : problem_(problem),
        config_(config),
        state_(problem),
        order_(ops_by_work_desc(*problem.tree)) {
    const std::size_t n = order_.size();
    // suffix_work_[d] = total (unscaled) work of order_[d..): how much CPU
    // demand the not-yet-assigned operators will add, whatever the shape of
    // the completion.
    suffix_work_.assign(n + 1, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      suffix_work_[i] =
          suffix_work_[i + 1] + problem.tree->op(order_[i]).work;
    }
  }

  ExactResult run() {
    ExactResult result;
    root_lb_ = cost_lower_bound(problem_).value;
    if (config_.incumbent) best_cost_ = *config_.incumbent;
    if (config_.seed_with_heuristics) seed_incumbent();

    // Proof by bound: a seeded incumbent meeting the root lower bound is
    // already optimal; no node needs visiting.
    if (best_alloc_ && best_cost_ <= root_lb_ + 1e-9) {
      result.status = ExactStatus::Optimal;
      result.cost = best_cost_;
      result.allocation = std::move(best_alloc_);
      result.nodes_visited = 0;
      return result;
    }

    // Pre-buy the maximum number of processors; only the first `opened`
    // count toward cost and candidate targets.
    const int n = problem_.tree->num_operators();
    for (int i = 0; i < n; ++i) {
      state_.buy(problem_.catalog->most_expensive());
    }

    budget_ok_ = true;
    dfs(0, 0);

    result.nodes_visited = nodes_;
    if (!budget_ok_) {
      result.status = ExactStatus::BudgetExhausted;
    } else if (best_alloc_.has_value()) {
      result.status = ExactStatus::Optimal;
    } else {
      result.status = ExactStatus::Infeasible;
    }
    if (best_alloc_) {
      result.cost = best_cost_;
      result.allocation = std::move(best_alloc_);
    }
    return result;
  }

 private:
  void seed_incumbent() {
    for (const PlacementStrategy& s : placement_registry()) {
      // Fixed per-strategy seed: the solver's result must not depend on any
      // caller RNG state.
      Rng rng(0xB0B5'0000ull + static_cast<std::uint64_t>(s.kind));
      const AllocationOutcome out = allocate(problem_, s.kind, rng);
      if (!out.success) continue;
      if (out.cost < best_cost_ - 1e-9 || (!best_alloc_ && out.cost <= best_cost_)) {
        best_cost_ = out.cost;
        best_alloc_ = out.allocation;
      }
    }
  }

  /// Lower bound on any completion of the current partial partition.  Every
  /// load is monotone non-decreasing along a descent (operators are only
  /// ever added; multicast dedup takes a max over edges, which never
  /// shrinks), so each opened processor costs at least the cheapest
  /// configuration meeting its CURRENT CPU demand and NIC load.  The
  /// remaining operators add rho * suffix_work_[depth] CPU demand; whatever
  /// does not fit the opened processors' residual CPU headroom forces new
  /// processors at the cheapest configuration each.
  Dollars partial_cost_bound(int opened, std::size_t depth) const {
    const PriceCatalog& cat = *problem_.catalog;
    const MopsPerSec s_max = cat.max_speed();
    Dollars total = 0.0;
    MopsPerSec headroom = 0.0;
    for (int u = 0; u < opened; ++u) {
      const MegaOps cpu = state_.cpu_demand(u);
      const auto cfg = cat.cheapest_meeting(cpu, state_.nic_load(u));
      if (!cfg) return kInf;
      total += cat.cost(*cfg);
      headroom += std::max(0.0, s_max - cpu);
    }
    const MegaOps overflow = problem_.rho * suffix_work_[depth] - headroom;
    if (overflow > kCapacityEpsilon) {
      const double extra = std::ceil(overflow / s_max - kCapacityEpsilon);
      total += extra * cat.cost(cat.cheapest());
    }
    return total;
  }

  void dfs(std::size_t depth, int opened) {
    if (!budget_ok_) return;
    if (config_.node_budget && nodes_ >= config_.node_budget) {
      budget_ok_ = false;
      return;
    }
    ++nodes_;

    if (depth == order_.size()) {
      ilpdetail::try_complete_partition(problem_, state_, opened,
                                        &best_cost_, &best_alloc_);
      return;
    }
    const Dollars bound =
        std::max(partial_cost_bound(opened, depth), root_lb_);
    if (bound >= best_cost_ - 1e-9) return;

    const int op = order_[depth];
    const int max_target = std::min(opened + 1,
                                    problem_.tree->num_operators());
    for (int u = 0; u < max_target; ++u) {
      // search_place's touched-set verdict equals a full feasible() scan
      // because every state on the search path is feasible.
      if (state_.search_place(op, u)) {
        dfs(depth + 1, std::max(opened, u + 1));
      }
      state_.search_unassign(op);
      if (!budget_ok_) return;
    }
  }

  const Problem& problem_;
  const ExactSolverConfig& config_;
  PlacementState state_;
  std::vector<int> order_;
  std::vector<MegaOps> suffix_work_;
  Dollars root_lb_ = 0.0;
  Dollars best_cost_ = kInf;
  std::optional<Allocation> best_alloc_;
  std::uint64_t nodes_ = 0;
  bool budget_ok_ = true;
};

} // namespace

namespace ilpdetail {

std::optional<Dollars> complete_partition_cost(const Problem& problem,
                                               const PlacementState& state,
                                               int opened) {
  Dollars total = 0.0;
  for (int u = 0; u < opened; ++u) {
    const auto cfg = problem.catalog->cheapest_meeting(state.cpu_demand(u),
                                                       state.nic_load(u));
    if (!cfg) return std::nullopt;
    total += problem.catalog->cost(*cfg);
  }
  return total;
}

void try_complete_partition(const Problem& problem, const PlacementState& state,
                            int opened, Dollars* best_cost,
                            std::optional<Allocation>* best_alloc) {
  const auto cost = complete_partition_cost(problem, state, opened);
  if (!cost || *cost >= *best_cost - 1e-9) return;

  Allocation alloc = state.to_allocation();
  // Server routing: fast path, then exact.
  if (!route_downloads_exact(problem, alloc)) return;

  // Downgrade now that routes exist (routes do not change NIC loads — rates
  // are server-independent).  Every leaf processor was bought at
  // most_expensive(), which by_cost() orders first among equal-priced
  // configurations, so a tie keeping it is the cheapest meeting one too.
  downgrade_processors(problem, alloc);
  *best_cost = *cost;
  *best_alloc = std::move(alloc);
}

} // namespace ilpdetail

bool route_downloads_exact(const Problem& problem, Allocation& alloc) {
  // Fast path: the paper's three-loop heuristic.
  {
    Allocation trial = alloc;
    if (select_servers_three_loop(problem, trial).success) {
      alloc = std::move(trial);
      return true;
    }
  }
  // Exact backtracking.
  ExactRouter router(problem, alloc);
  std::vector<int> servers;
  if (!router.solve(&servers)) return false;
  for (auto& p : alloc.processors) p.downloads.clear();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const auto [proc, type] = router.demands()[i];
    alloc.processors[static_cast<std::size_t>(proc)].downloads.push_back(
        {type, servers[i]});
  }
  for (auto& p : alloc.processors) {
    std::sort(p.downloads.begin(), p.downloads.end(),
              [](const DownloadRoute& a, const DownloadRoute& b) {
                return a.object_type < b.object_type;
              });
  }
  return true;
}

ExactResult solve_exact(const Problem& problem,
                        const ExactSolverConfig& config) {
  return IncrementalSearch(problem, config).run();
}

} // namespace insp
