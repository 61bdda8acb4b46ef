// Deterministic batching and coalescing rules (docs/DESIGN.md §9).  The
// allocation service applies a shard's requests in *epoch batches* instead
// of one repair per request, folding bursts of rate updates into one repair
// pass.  Everything here is a pure function of the event stream — never of
// arrival timing or thread count — which is what makes a concurrent service
// run bit-reproducible against the sequential per-shard reference
// (service_replay.hpp):
//
//   - epoch: floor(event.time / window_s).  A batch is a maximal run of
//     consecutive same-epoch events in shard submission order.  An epoch is
//     *closed* (safe to apply) once a later-epoch event has been accepted
//     by the service, for this shard or any other — event times are
//     non-decreasing service-wide, so nothing can join a closed epoch —
//     and every event submitted to the shard has reached it, or when the
//     service is draining (AllocationService::ready_count_locked).
//   - coalescing: within a batch, consecutive runs of rate-only events
//     (RhoChange / ObjectRateChange) keep only the last update per app and
//     per object type; earlier ones are acknowledged without a repair pass
//     (last-write-wins, exactly what the tenant observes from a sequential
//     application of the run).  Structural and server events
//     (arrival/departure/failure/recovery) are barriers: rate updates never
//     reorder across them.  One refinement for the health layer, whose
//     failure detector may re-assert a failure it already reported while
//     the repair is in flight: a consecutive run of *identical* server
//     events (same kind, same server) collapses to a single application —
//     DynamicAllocator::apply treats the duplicates as idempotent no-ops
//     anyway, so collapsing them saves the shard a repair pass per
//     duplicate without changing what any tenant observes.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/workload_events.hpp"

namespace insp {

/// Epoch of an event at the given window width.  window_s <= 0 disables
/// batching (every event is its own epoch, nothing coalesces).  A quotient
/// beyond the int64 range clamps to its limits; a NaN one is epoch 0.
std::int64_t batch_epoch(double time_s, double window_s);

/// True for the event kinds that participate in last-write-wins coalescing.
bool is_rate_event(EventKind kind);

/// True for ServerFailure / ServerRecovery — the kinds whose identical
/// consecutive repeats collapse to one application (see above).
bool is_server_event(EventKind kind);

struct CoalescedBatch {
  /// Surviving events, in their original relative order (a survivor keeps
  /// the position of its *last* occurrence within its rate run).
  std::vector<WorkloadEvent> applied;
  /// Events folded away by last-write-wins.
  int coalesced = 0;
};

/// Coalesces one batch (the events of one epoch, in submission order).
CoalescedBatch coalesce_batch(const std::vector<WorkloadEvent>& batch);

/// Splits `events` (submission order) into consecutive same-epoch runs and
/// returns the batch boundaries as (first, last) index pairs, last
/// exclusive.  Shared by the shard runners and the sequential reference so
/// both see identical batches.
std::vector<std::pair<std::size_t, std::size_t>> epoch_runs(
    const std::vector<WorkloadEvent>& events, double window_s);

} // namespace insp
