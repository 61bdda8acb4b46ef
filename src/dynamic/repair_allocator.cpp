#include "dynamic/repair_allocator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/constraints.hpp"
#include "core/downgrade.hpp"
#include "core/local_search.hpp"
#include "core/placement_common.hpp"
#include "core/server_selection.hpp"
#include "util/log.hpp"

namespace insp {

namespace {

/// The planner of the initial allocation and the scratch fallback.
constexpr HeuristicKind kFallbackHeuristic = HeuristicKind::SubtreeBottomUp;

} // namespace

const char* to_string(EventError error) {
  switch (error) {
    case EventError::kNone: return "none";
    case EventError::kUnknownApp: return "unknown-app";
    case EventError::kDuplicateArrival: return "duplicate-arrival";
    case EventError::kServerOutOfRange: return "server-out-of-range";
    case EventError::kObjectOutOfRange: return "object-out-of-range";
    case EventError::kBadRate: return "bad-rate";
    case EventError::kBadRho: return "bad-rho";
    case EventError::kBadArrivalTree: return "bad-arrival-tree";
  }
  return "unknown";
}

DynamicAllocator::DynamicAllocator(std::vector<ApplicationSpec> initial_apps,
                                   Platform platform, PriceCatalog catalog,
                                   RepairOptions options)
    : opt_(options),
      catalog_(std::move(catalog)),
      base_platform_(platform),
      platform_(std::move(platform)),
      rng_(0) {
  server_up_.assign(static_cast<std::size_t>(base_platform_.num_servers()),
                    true);
  for (std::size_t a = 0; a < initial_apps.size(); ++a) {
    app_ids_.push_back(static_cast<int>(a));
    apps_.push_back(std::move(initial_apps[a]));
  }
}

Problem DynamicAllocator::problem() const {
  Problem p;
  p.tree = &forest_;
  p.platform = &platform_;
  p.catalog = &catalog_;
  p.rho = 1.0;  // per-app rhos are folded into the forest demands
  return p;
}

bool DynamicAllocator::has_app(int app_id) const {
  return app_slot(app_id) >= 0;
}

Throughput DynamicAllocator::rho_of(int app_id) const {
  const int slot = app_slot(app_id);
  assert(slot >= 0);
  return apps_[static_cast<std::size_t>(slot)].rho;
}

int DynamicAllocator::num_servers_down() const {
  int n = 0;
  for (bool up : server_up_) n += up ? 0 : 1;
  return n;
}

int DynamicAllocator::app_slot(int app_id) const {
  for (std::size_t s = 0; s < app_ids_.size(); ++s) {
    if (app_ids_[s] == app_id) return static_cast<int>(s);
  }
  return -1;
}

void DynamicAllocator::rebuild_platform() {
  platform_ = base_platform_.degraded(server_up_);
}

RepairReport DynamicAllocator::initialize(std::uint64_t seed) {
  assert(!initialized_);
  assert(!apps_.empty());
  rng_ = Rng(seed);
  rebuild_platform();
  RepairReport rep;
  rep.cost_before = 0.0;
  refold_and_replay({});
  if (fallback_scratch(rep)) {
    rep.success = true;
    initialized_ = true;
  }
  // The initial allocation is provisioning, not disruption.
  rep.ops_moved = 0;
  rep.used_fallback = false;
  rep.procs_retired = 0;
  rep.procs_bought = alloc_.num_processors();
  rep.cost_after = cost();
  return rep;
}

DynamicAllocator::AssignmentSnapshot DynamicAllocator::snapshot_assignment(
    int dropped_slot) const {
  AssignmentSnapshot snap;
  if (!state_) return snap;
  int offset = 0;
  for (std::size_t s = 0; s < apps_.size(); ++s) {
    const int count = apps_[s].tree.num_operators();
    if (static_cast<int>(s) != dropped_slot) {
      std::vector<int>& homes = snap.home.emplace_back();
      homes.reserve(static_cast<std::size_t>(count));
      for (int i = 0; i < count; ++i) {
        homes.push_back(state_->proc_of(offset + i));
      }
    }
    offset += count;
  }
  snap.live = state_->live_processors();
  if (!snap.live.empty()) {
    snap.configs.resize(static_cast<std::size_t>(snap.live.back()) + 1);
    for (int pid : snap.live) {
      snap.configs[static_cast<std::size_t>(pid)] = state_->config(pid);
    }
  }
  return snap;
}

void DynamicAllocator::refold_and_replay(const AssignmentSnapshot& prev) {
  if (apps_.empty()) {
    forest_ = OperatorTree();
    state_.reset();
    alloc_ = Allocation{};
    return;
  }
  CombinedApplication combined = combine_applications(apps_);
  forest_ = std::move(combined.forest);
  state_.emplace(problem());

  // Re-buy the surviving processors (old pid -> new pid, purchase order
  // preserved) and replay the surviving assignment verbatim: existing
  // applications are not disrupted by a structural event.
  std::vector<int> new_pid(prev.configs.size(), -1);
  for (int old_pid : prev.live) {
    new_pid[static_cast<std::size_t>(old_pid)] =
        state_->buy(prev.configs[static_cast<std::size_t>(old_pid)]);
  }
  for (std::size_t s = 0; s < prev.home.size(); ++s) {
    const int offset = combined.op_offset_of_app[s];
    for (std::size_t i = 0; i < prev.home[s].size(); ++i) {
      const int old_pid = prev.home[s][i];
      // kNoNode: the operator was unassigned in a degraded state (a failed
      // earlier event); it stays unassigned and place_unassigned or the
      // fallback picks it up.
      if (old_pid < 0) continue;
      state_->search_place(offset + static_cast<int>(i),
                           new_pid[static_cast<std::size_t>(old_pid)]);
    }
  }
}

namespace {

/// First fit: commit on the first candidate try_place accepts.
bool first_fit(PlacementState& state, int op, const std::vector<int>& pids) {
  for (int pid : pids) {
    if (state.try_place(op, pid)) return true;
  }
  return false;
}

} // namespace

bool DynamicAllocator::place_unassigned(RepairReport& report) {
  // Arriving operators, bottom-up so children are seated before parents
  // (first-fit then naturally gravitates toward realized neighbors'
  // processors via the link budget).  Each goes to the first live processor
  // that takes it, else to a lone top-tier processor, else to a group: the
  // paper's grouping step (§4.1) merges the neighbor with the most demanding
  // edge and retries on a fresh processor, pulling members already seated.
  // The applications of the forest share no edge, and an application with
  // an unseated operator has never been published (a failed event keeps the
  // last good allocation), so a group never reaches a running application.
  // The probe's verdict judges only the capacities a placement touches and
  // lets a violated one stay violated if it does not grow, so an earlier
  // failed event (degraded state) cannot veto unrelated placements.
  PlacementState& state = *state_;
  const std::vector<int>& live = state.live_processors();
  const int live_before = state.num_live_processors();
  // Pids grow monotonically: every pid from here on is bought in this call.
  const int first_new = live.empty() ? 0 : live.back() + 1;
  std::vector<int>& order = scratch_.order;
  order.clear();
  for (int op : forest_.bottom_up_order()) {
    if (state.proc_of(op) == kNoNode) order.push_back(op);
  }
  bool ok = true;
  for (int op : order) {
    if (state.proc_of(op) != kNoNode) continue;  // seated by a group
    if (first_fit(state, op, live)) continue;
    const int pid = state.buy(catalog_.most_expensive());
    if (state.try_place(op, pid)) continue;
    state.sell(pid);
    if (place_with_grouping(state, op, GroupConfigPolicy::CheapestFirst,
                            nullptr)) {
      ++report.groups_formed;
      continue;
    }
    report.failure_reason = "arrival: operator " + std::to_string(op) +
                            " fits no processor";
    ok = false;
    break;
  }
  // A group sells the processors its pulls empty, so a processor bought and
  // sold inside this call counts as neither bought nor retired.
  const int kept = static_cast<int>(
      std::lower_bound(live.begin(), live.end(), first_new) - live.begin());
  report.procs_bought += state.num_live_processors() - kept;
  report.procs_retired += live_before - kept;
  return ok;
}

bool DynamicAllocator::repair_violations(RepairReport& report) {
  PlacementState& state = *state_;
  // Fixed round budget (DESIGN §8): past it the event falls back to scratch.
  const int max_rounds = 4 * state.num_live_processors() + 16;
  RepairScratch& sc = scratch_;
  for (int round = 0; round < max_rounds; ++round) {
    state.overloaded_processors(sc.over_procs);
    state.overloaded_links(sc.over_links);
    const std::vector<int>& over_procs = sc.over_procs;
    const std::vector<std::pair<int, int>>& over_links = sc.over_links;
    if (over_procs.empty() && over_links.empty()) return true;

    // Target the lowest overloaded processor; when only links are violated,
    // drain the endpoint carrying more traffic.
    int target;
    bool proc_violation = !over_procs.empty();
    if (proc_violation) {
      target = over_procs.front();
    } else {
      const auto [a, b] = over_links.front();
      target = state.comm_load(a) >= state.comm_load(b) ? a : b;
    }

    // Move 1 — re-purchase in place: the cheapest catalog configuration
    // that meets the processor's new loads (no operator moves at all).
    if (proc_violation) {
      const auto cfg = catalog_.cheapest_meeting(state.cpu_demand(target),
                                                 state.nic_load(target));
      if (cfg && state.try_reconfigure(target, *cfg)) {
        ++report.reconfigures;
        continue;
      }
    }

    // Move 2 — targeted eviction: relocate one operator off the violated
    // resource (the source may stay violated, but no touched capacity may
    // get worse and no new violation may appear).
    // Order candidates by their contribution to the violated dimension.
    const std::vector<int>& candidates = state.ops_on(target);
    const MegaOps cpu_excess =
        state.cpu_demand(target) -
        catalog_.speed(state.config(target));
    std::vector<std::pair<double, int>>& keyed = sc.keyed;
    keyed.clear();
    keyed.reserve(candidates.size());
    for (int op : candidates) {
      double key;
      if (proc_violation && cpu_excess > 0.0) {
        key = forest_.op(op).work;
      } else {
        // Bandwidth violation: crossing-edge volume the operator carries.
        key = 0.0;
        state.visit_neighbors(op, [&](int nb, MBps volume) {
          const int q = state.proc_of(nb);
          if (q != kNoNode && q != target) key += volume;
        });
      }
      keyed.emplace_back(key, op);
    }
    std::sort(keyed.begin(), keyed.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });

    bool moved = false;
    for (const auto& [key, op] : keyed) {
      (void)key;
      std::vector<int>& cands = sc.cands;
      cands.clear();
      for (int q : state.live_processors()) {
        if (q != target) cands.push_back(q);
      }
      if (first_fit(state, op, cands)) {
        ++report.ops_moved;
        if (!state.is_live(target)) ++report.procs_retired;
        moved = true;
        break;
      }
    }
    if (moved) continue;

    // Move 3 — bounded re-purchase: a fresh processor for the heaviest
    // evictable operator.
    const int pid = state.buy(catalog_.most_expensive());
    for (const auto& [key, op] : keyed) {
      (void)key;
      if (state.try_place(op, pid)) {
        ++report.ops_moved;
        ++report.procs_bought;
        if (!state.is_live(target)) ++report.procs_retired;
        moved = true;
        break;
      }
    }
    if (moved) continue;
    state.sell(pid);

    report.failure_reason =
        "repair: processor " + std::to_string(target) + " cannot be drained";
    return false;
  }
  report.failure_reason = "repair: round limit exhausted";
  return false;
}

void DynamicAllocator::consolidate(RepairReport& report) {
  // Merge sweep: fold processor pairs whose merged cheapest-meeting
  // configuration beats the pair — this is how capacity released by a rho
  // decrease or a departure turns back into dollars.
  const MergeSweepResult merged = merge_sweep(*state_);
  report.ops_moved += merged.ops_moved;
  report.procs_retired += merged.merges;
  report.merges_tried += merged.tried;
  report.merges_failed += merged.failed;
  // Re-pricing pass: the downgrade step, applied in place to the live
  // state (strictly cheaper configurations only).
  for (int pid : state_->live_processors()) {
    const ProcessorConfig cfg =
        downgraded_config(catalog_, state_->config(pid),
                          state_->cpu_demand(pid), state_->nic_load(pid));
    if (cfg == state_->config(pid)) continue;
    if (state_->try_reconfigure(pid, cfg)) ++report.reconfigures;
  }
}

bool DynamicAllocator::finish_allocation(RepairReport& report) {
  if (state_->num_unassigned() != 0) {
    report.failure_reason = "finish: unassigned operators remain";
    return false;
  }
  if (!state_->feasible()) {
    report.failure_reason = "finish: placement infeasible";
    return false;
  }
  Allocation candidate = state_->to_allocation();
  const Problem prob = problem();
  const ServerSelectionResult sel =
      select_servers_three_loop(prob, candidate);
  if (!sel.success) {
    report.failure_reason = "server-selection: " + sel.failure_reason;
    return false;
  }
  const CheckReport chk = check_allocation(prob, candidate);
  if (!chk.ok()) {
    report.failure_reason = "validation: " + chk.summary();
    return false;
  }
  alloc_ = std::move(candidate);
  return true;
}

void DynamicAllocator::adopt_allocation(const Allocation& alloc) {
  state_.emplace(problem());
  std::vector<int> pid_of(alloc.processors.size());
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    pid_of[u] = state_->buy(alloc.processors[u].config);
  }
  for (std::size_t op = 0; op < alloc.op_to_proc.size(); ++op) {
    state_->search_place(
        static_cast<int>(op),
        pid_of[static_cast<std::size_t>(alloc.op_to_proc[op])]);
  }
}

bool DynamicAllocator::fallback_scratch(RepairReport& report) {
  const Problem prob = problem();
  const int previously_assigned =
      forest_.num_operators() - (state_ ? state_->num_unassigned() : 0);
  Rng r = rng_.split();
  const AllocationOutcome out = allocate(prob, kFallbackHeuristic, r);
  if (!out.success) {
    report.failure_reason = "scratch: " + out.failure_reason;
    return false;
  }
  // Scratch re-allocation disrupts every running operator: the plan is
  // rebuilt with no continuity guarantee.
  report.ops_moved += previously_assigned;
  report.procs_retired += state_ ? state_->num_live_processors() : 0;
  report.procs_bought += out.num_processors;
  alloc_ = out.allocation;
  adopt_allocation(alloc_);
  report.failure_reason.clear();
  return true;
}

RepairReport DynamicAllocator::apply(const WorkloadEvent& event,
                                     const EventTrace& trace) {
  RepairReport rep;
  assert(initialized_);
  rep.cost_before = cost();

  // Precondition checks (traces are external artifacts; the text loader can
  // only check what the trace itself knows, and the allocation service
  // forwards arbitrary tenant requests here).  A rejected event changes
  // nothing and reports a structured EventError.  Two deliberate
  // exceptions: RhoChange for an app that already departed stays a benign
  // no-op (a tenant's in-flight rate update racing its own departure is
  // normal stream behavior), and duplicate server failure/recovery takes
  // the idempotent already-known path below — while departing a tenant
  // that was never admitted signals a corrupted request stream.
  const auto reject = [&rep](EventError error, std::string reason) {
    rep.error = error;
    rep.failure_reason = std::move(reason);
  };
  switch (event.kind) {
    case EventKind::ObjectRateChange:
      if (event.object_type < 0 ||
          event.object_type >= platform_.num_object_types()) {
        reject(EventError::kObjectOutOfRange,
               "event: object type out of range");
        return rep;
      }
      if (!positive_finite(event.freq_hz)) {
        reject(EventError::kBadRate,
               "event: object rate must be finite and positive");
        return rep;
      }
      break;
    case EventKind::ServerFailure:
    case EventKind::ServerRecovery:
      if (event.server < 0 || event.server >= platform_.num_servers()) {
        reject(EventError::kServerOutOfRange, "event: server out of range");
        return rep;
      }
      // Idempotent "already known" path: a duplicate failure (or a recovery
      // of a healthy server) re-asserts state the allocator already holds.
      // Failure detectors re-infer failure during in-flight recoveries as a
      // matter of course, so this is a no-op success, not a stream error.
      if (server_up_[static_cast<std::size_t>(event.server)] ==
          (event.kind == EventKind::ServerRecovery)) {
        rep.already_known = true;
        rep.success = true;
        rep.cost_after = rep.cost_before;
        return rep;
      }
      break;
    case EventKind::AppArrival:
      if (event.arrival_tree < 0 ||
          static_cast<std::size_t>(event.arrival_tree) >=
              trace.arrival_trees.size()) {
        reject(EventError::kBadArrivalTree,
               "event: arrival tree index outside the trace");
        return rep;
      }
      if (!positive_finite(event.rho)) {
        reject(EventError::kBadRho, "event: rho must be finite and positive");
        return rep;
      }
      if (has_app(event.app_id)) {
        reject(EventError::kDuplicateArrival,
               "event: app " + std::to_string(event.app_id) +
                   " is already live");
        return rep;
      }
      break;
    case EventKind::RhoChange:
      if (!positive_finite(event.rho)) {
        reject(EventError::kBadRho, "event: rho must be finite and positive");
        return rep;
      }
      break;
    case EventKind::AppDeparture:
      if (!has_app(event.app_id)) {
        reject(EventError::kUnknownApp,
               "event: departure of unknown app " +
                   std::to_string(event.app_id));
        return rep;
      }
      break;
  }
  // With every application departed there is no forest and no catalog to
  // update: a rate change is dropped (the object catalog lives in the
  // application trees).  Server events still flip platform state below,
  // and rho changes / departures no-op through the app_slot lookup.
  if (apps_.empty() && event.kind == EventKind::ObjectRateChange) {
    rep.success = true;
    return rep;
  }

  // One steady_clock reading per phase boundary; lap() returns the seconds
  // since the previous one.
  auto mark = std::chrono::steady_clock::now();
  const auto lap = [&mark] {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - mark).count();
    mark = now;
    return s;
  };

  bool arrival = false;
  switch (event.kind) {
    case EventKind::RhoChange: {
      const int slot = app_slot(event.app_id);
      if (slot < 0) break;  // app already departed: benign no-op
      ApplicationSpec& app = apps_[static_cast<std::size_t>(slot)];
      const double factor = event.rho / app.rho;
      int offset = 0;
      for (int s = 0; s < slot; ++s) {
        offset += apps_[static_cast<std::size_t>(s)].tree.num_operators();
      }
      const int count = app.tree.num_operators();
      for (int i = offset; i < offset + count; ++i) {
        const MegaOps old_w = forest_.op(i).work;
        const MegaBytes old_d = forest_.op(i).output_mb;
        forest_.set_demand(i, old_w * factor, old_d * factor);
        state_->refresh_op_demand(i, old_w, old_d);
      }
      app.rho = event.rho;
      break;
    }
    case EventKind::ObjectRateChange: {
      const MBps old_rate =
          forest_.catalog().type(event.object_type).rate();
      forest_.mutable_catalog().set_type_frequency(event.object_type,
                                                   event.freq_hz);
      for (ApplicationSpec& app : apps_) {
        app.tree.mutable_catalog().set_type_frequency(event.object_type,
                                                      event.freq_hz);
      }
      state_->refresh_object_rate(event.object_type, old_rate);
      break;
    }
    case EventKind::ServerFailure:
    case EventKind::ServerRecovery: {
      server_up_[static_cast<std::size_t>(event.server)] =
          event.kind == EventKind::ServerRecovery;
      rebuild_platform();
      break;
    }
    case EventKind::AppArrival: {
      ApplicationSpec spec;
      spec.tree =
          trace.arrival_trees[static_cast<std::size_t>(event.arrival_tree)];
      spec.rho = event.rho;
      // The arrival tree was generated against the trace-time catalog;
      // sync its frequencies to the world's current values so the folded
      // catalogs agree.
      for (const ObjectType& t : forest_.catalog().all()) {
        spec.tree.mutable_catalog().set_type_frequency(t.id, t.freq_hz);
      }
      const AssignmentSnapshot prev = snapshot_assignment(-1);
      app_ids_.push_back(event.app_id);
      apps_.push_back(std::move(spec));
      refold_and_replay(prev);
      arrival = true;
      break;
    }
    case EventKind::AppDeparture: {
      const int slot = app_slot(event.app_id);
      if (slot < 0) break;
      const AssignmentSnapshot prev = snapshot_assignment(slot);
      const int before_procs = static_cast<int>(prev.live.size());
      app_ids_.erase(app_ids_.begin() + slot);
      apps_.erase(apps_.begin() + slot);
      refold_and_replay(prev);
      if (state_) {
        // Sell the processors the departure emptied.
        for (int pid : std::vector<int>(state_->live_processors())) {
          if (state_->ops_on(pid).empty()) state_->sell(pid);
        }
        rep.procs_retired +=
            before_procs - state_->num_live_processors();
      }
      break;
    }
  }

  if (apps_.empty()) {
    // Nothing left to run: the empty allocation is trivially valid.
    rep.success = true;
    rep.cost_after = 0.0;
    return rep;
  }

  bool ok = true;
  if (opt_.always_fallback) {
    rep.fallback_reason = "always_fallback";
    ok = fallback_scratch(rep);
    rep.used_fallback = true;
  } else {
    rep.refold_s = lap();
    // Arrivals, and operators left unassigned by an earlier failed event.
    if (arrival || state_->num_unassigned() > 0) {
      ok = place_unassigned(rep);
    }
    rep.place_unassigned_s = lap();
    rep.violations_before =
        static_cast<int>(state_->overloaded_processors().size() +
                         state_->overloaded_links().size());
    if (ok && rep.violations_before > 0) ok = repair_violations(rep);
    rep.repair_violations_s = lap();
    if (ok) consolidate(rep);
    rep.consolidate_s = lap();
    if (ok) ok = finish_allocation(rep);
    rep.finish_allocation_s = lap();
    if (!ok) {
      INSP_DEBUG << "event " << to_string(event.kind)
                 << ": targeted repair failed (" << rep.failure_reason
                 << "); falling back to scratch re-allocation";
      rep.used_fallback = true;
      rep.fallback_reason = rep.failure_reason;
      ok = fallback_scratch(rep);
    }
  }
  rep.success = ok;
  rep.cost_after = cost();
  return rep;
}

} // namespace insp
