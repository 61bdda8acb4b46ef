// Online re-allocation engine (docs/DESIGN.md §8).  DynamicAllocator keeps
// a *live* multi-application allocation — the folded forest of multi/, a
// PlacementState over it, and the finished Allocation with download routes —
// and repairs it event by event instead of re-running a full heuristic:
//
//   - demand events (per-app rho, object update rates) are applied to the
//     live PlacementState through the incremental refresh hooks, then each
//     overloaded processor is re-purchased in place at the cheapest catalog
//     configuration meeting its new loads (the paper's pricing rule; no
//     operator moves and nothing is bought);
//   - structural events (application arrival/departure) rebuild the folded
//     forest and re-seat the surviving assignment verbatim, so existing
//     applications are not disrupted; arriving operators are placed
//     bottom-up by first fit, then a lone top-tier processor, then the
//     paper's grouping step (§4.1) on a fresh processor;
//   - server failure/recovery re-routes downloads (server selection) without
//     touching the placement;
//   - after every event a consolidation pass (the local-search merge_sweep,
//     then the downgrade rule, downgraded_config, applied in place to each
//     live processor) recovers cost headroom the event released.
//
// When targeted repair yields no valid plan (a processor exceeds every
// configuration, a link is overloaded, an arriving operator fits nowhere,
// or server selection or the final check fails), the engine falls back to
// a full from-scratch re-allocation.  Every event returns a RepairReport with
// the disruption actually incurred (operators moved, processors bought /
// retired / re-priced, dollars delta) — the currency the paper's one-shot
// setting never has to account for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/placement_state.hpp"
#include "dynamic/workload_events.hpp"
#include "multi/multi_app.hpp"

namespace insp {

struct RepairOptions {
  /// Diagnostics/baseline mode: handle every event with the scratch
  /// re-allocation path, skipping incremental repair entirely.  This is the
  /// "what the static paper pipeline would do" yardstick bench_dynamic
  /// measures repair latency and disruption against.
  bool always_fallback = false;
};

/// Machine-readable verdict of the event-precondition checks apply() runs
/// before touching any state.  Traces produced by generate_trace always
/// satisfy the preconditions; hand-written or external event streams (the
/// allocation service's tenant requests) are validated here instead of
/// relying on trace-generator goodwill.  kNone covers both success and
/// repair-stage failures (no-valid-plan), which keep their textual
/// failure_reason.
enum class EventError {
  kNone = 0,
  kUnknownApp,        ///< AppDeparture for an app never admitted / already gone
  kDuplicateArrival,  ///< AppArrival with an id that is already live
  kServerOutOfRange,
  kObjectOutOfRange,
  kBadRate,           ///< ObjectRateChange: freq NaN, infinite or <= 0
  kBadRho,            ///< RhoChange / AppArrival: rho NaN, infinite or <= 0
  kBadArrivalTree,    ///< AppArrival tree index outside the trace
};

const char* to_string(EventError error);

struct RepairReport {
  bool success = false;
  EventError error = EventError::kNone;  ///< precondition verdict (see above)
  /// The event re-asserted platform state the allocator already holds: a
  /// ServerFailure for a server already down, or a ServerRecovery for a
  /// healthy server.  A failure detector legitimately re-infers failure
  /// while an earlier inference is still being repaired (flapping at the
  /// detection boundary), so these are idempotent successes — nothing is
  /// re-applied, no repair pass runs — not corrupted-stream errors.
  bool already_known = false;
  std::string failure_reason;   ///< set when the event left no valid plan
  bool used_fallback = false;   ///< targeted repair failed or was bypassed
  /// Why the scratch fallback ran: the targeted repair's failure_reason at
  /// that moment, or "always_fallback".  A successful fallback clears
  /// failure_reason, so this is where the reason survives.  Not part of the
  /// replay signature.
  std::string fallback_reason;
  int violations_before = 0;    ///< overloaded processors+links post-event
  /// Operators seated before the event began that the event moves to
  /// another processor, each counted once.  The operators place_unassigned
  /// seats in the event (an arrival's, or ones an earlier failed event left
  /// unseated) never ran, so moving them counts nothing.  Re-purchase moves
  /// nothing, and arrival placement counts nothing: a group pulls only
  /// operators of an application that was never published.  The
  /// consolidation merge sweep counts those seated operators on every
  /// processor it empties; a scratch fallback counts all of them.
  int ops_moved = 0;
  /// Processors bought / retired; re-purchase does neither.  Arrival
  /// placement counts the processors it leaves live that were not live
  /// before it (and the reverse), so one a group buys and sells again
  /// counts as neither.
  int procs_bought = 0;
  int procs_retired = 0;
  /// In-place catalog re-purchases: repair's upgrades of overloaded
  /// processors and consolidation's downgrades.
  int reconfigures = 0;
  /// Arriving operators that neither first fit nor a lone top-tier
  /// processor could seat, and that a group seated instead (one per group).
  /// Counted even when a later step falls back to scratch.  Not part of the
  /// replay signature.
  int groups_formed = 0;
  /// The consolidation sweep's MergeSweepResult::tried / failed: pairs
  /// whose projection promised a saving, and those of them that merged in
  /// neither direction.  Not part of the replay signature.
  int merges_tried = 0;
  int merges_failed = 0;
  /// Wall-clock seconds of apply()'s targeted-repair phases, from one
  /// steady_clock reading at each phase boundary; a phase that does not run
  /// reads about 0.  refold_s covers the event's own change (refresh, or
  /// refold and re-seat).  Their sum is at most apply()'s wall time.  Not
  /// part of the replay signature.
  double refold_s = 0.0;
  double place_unassigned_s = 0.0;
  double repair_violations_s = 0.0;
  double consolidate_s = 0.0;
  double finish_allocation_s = 0.0;
  Dollars cost_before = 0.0;
  Dollars cost_after = 0.0;
};

class DynamicAllocator {
 public:
  /// Takes ownership of the initial world.  Call initialize() once before
  /// apply(); the object is immovable because the internal PlacementState
  /// points at the owned forest/platform/catalog.
  DynamicAllocator(std::vector<ApplicationSpec> initial_apps,
                   Platform platform, PriceCatalog catalog,
                   RepairOptions options = {});
  DynamicAllocator(const DynamicAllocator&) = delete;
  DynamicAllocator& operator=(const DynamicAllocator&) = delete;

  /// From-scratch initial allocation (SubtreeBottomUp; the world fails to
  /// initialize when it fails).  `seed` also seeds the RNG
  /// used by any later fallback run, so the whole trajectory is
  /// deterministic given (world, trace, seed).
  RepairReport initialize(std::uint64_t seed);

  /// Applies one event and repairs the allocation.  `trace` supplies
  /// arrival trees.  On failure (no valid plan exists or repair+fallback
  /// both failed) the previous allocation is kept and success=false.
  RepairReport apply(const WorkloadEvent& event, const EventTrace& trace);

  // --- current world --------------------------------------------------------
  const OperatorTree& forest() const { return forest_; }
  const Platform& platform() const { return platform_; }
  const PriceCatalog& catalog() const { return catalog_; }
  /// Folded problem (rho = 1) pointing at the internal forest/platform.
  Problem problem() const;
  /// Finished allocation (download routes included) after the last event.
  const Allocation& allocation() const { return alloc_; }
  Dollars cost() const { return alloc_.total_cost(catalog_); }
  /// The live placement state the repair passes edit; nullptr when there is
  /// none (before initialize(), or once every application has left).
  const PlacementState* placement_state() const {
    return state_ ? &*state_ : nullptr;
  }
  int num_live_apps() const { return static_cast<int>(apps_.size()); }
  bool has_app(int app_id) const;
  /// Current throughput target of a live application.
  Throughput rho_of(int app_id) const;
  int num_servers_down() const;
  /// Per-server health flags (indexed by server id) — the degradation the
  /// scenario engine folds into the simulator's SimPlatformView so replay
  /// validates failure events against the world as it actually is.
  const std::vector<bool>& servers_up() const { return server_up_; }

 private:
  int app_slot(int app_id) const;  ///< index into apps_, -1 when gone
  void rebuild_platform();
  /// First forest id of app slot `slot`'s operators (ids are contiguous
  /// per application, in apps_ order).
  int op_offset(int slot) const;
  /// The live assignment in seat()'s terms: the configuration of every live
  /// processor in purchase order, and each operator's index into it
  /// (kNoNode: unassigned).  Both empty when there is no state.
  void live_assignment(std::vector<ProcessorConfig>& configs,
                       std::vector<int>& home) const;
  /// Rebuilds the folded forest from apps_ and drops the PlacementState;
  /// with no application left, also the allocation.
  void refold();
  /// The one way state_ is rebuilt (initial plan, structural events, the
  /// scratch fallback): a fresh PlacementState over forest_ buys `configs`
  /// in order, then seats each operator `op` on processor `home[op]` in
  /// ascending op order.  Operators marked kNoNode or past the end of
  /// `home` stay unassigned.
  void seat(const std::vector<ProcessorConfig>& configs,
            const std::vector<int>& home);
  /// Places every unassigned operator (arrivals) bottom-up: first fit on a
  /// live processor, else a lone top-tier processor, else a group grown
  /// along the most demanding edges (place_with_grouping, CheapestFirst).
  /// Returns false when some operator fits nowhere, even grouped.
  bool place_unassigned(RepairReport& report);
  /// Re-purchases each processor in scratch_.over_procs at the cheapest
  /// configuration meeting its loads.  False (a `repair:` failure_reason)
  /// when one exceeds every configuration or scratch_.over_links is not
  /// empty.
  bool repair_violations(RepairReport& report);
  /// merge_sweep (core/local_search.hpp) + cheapest-meeting re-pricing on
  /// the feasible state.
  void consolidate(RepairReport& report);
  /// Full from-scratch re-allocation of the current problem with
  /// SubtreeBottomUp; false (a `scratch:` failure_reason) when it fails.
  bool fallback_scratch(RepairReport& report);
  /// Re-runs server selection + full validation into alloc_.
  bool finish_allocation(RepairReport& report);

  RepairOptions opt_;
  PriceCatalog catalog_;
  Platform base_platform_;
  Platform platform_;
  std::vector<bool> server_up_;
  std::vector<int> app_ids_;              // stable external ids
  std::vector<ApplicationSpec> apps_;     // parallel to app_ids_
  OperatorTree forest_;                   // folded (rho baked into demands)
  std::optional<PlacementState> state_;
  /// Reused buffers of the repair passes: they reach steady-state capacity
  /// after the first events, so later events never touch the heap there.
  struct RepairScratch {
    std::vector<int> over_procs;
    std::vector<std::pair<int, int>> over_links;
    /// The operators unassigned when the event's placement step began,
    /// bottom-up: the ones that never ran.  Cleared by every targeted
    /// repair, filled by place_unassigned, read by consolidate and
    /// fallback_scratch.
    std::vector<int> unseated;
  };
  RepairScratch scratch_;
  Allocation alloc_;
  Rng rng_;
  bool initialized_ = false;
};

} // namespace insp
