// Sharded, thread-safe allocation service (docs/DESIGN.md §9): the
// concurrent front end over the online re-allocation engine.  The platform
// is partitioned into shards — each shard owns its own server partition,
// price catalog, tenant set, and one DynamicAllocator kept live behind a
// single-writer discipline — and tenant requests (arrival/departure, rho
// and object-rate changes, server failures) flow through one bounded MPMC
// queue into per-shard epoch batches (batch_planner.hpp).
//
// Concurrency model, and why a concurrent run is bit-reproducible:
//   - event times are non-decreasing across the whole service: submit()
//     refuses a request earlier than the last accepted one.  Under one
//     submit-side mutex it checks the time, stamps a shard-local sequence
//     number and pushes, so the accepted stream has one total order;
//     workers popping the shared queue re-sort a shard's requests by that
//     sequence, so per-shard order is submission order no matter which
//     worker carries which request.
//   - a shard is driven by at most one worker at a time (an atomic
//     ownership flag, not a held lock), and only *closed, complete* epoch
//     batches are applied.  An epoch closes when a later-epoch request for
//     the shard has been submitted; when a later-epoch request for *any*
//     shard has been accepted (the service-wide watermark) and every
//     request submitted to the shard has reached its pending list (the
//     worker that pops the request raising the watermark re-runs the
//     other shards); or at drain.  The watermark moves only *when* a
//     batch is applied: batch composition stays a pure function of each
//     shard's stream, never of timing.
//   - the repair trajectory of a shard is then exactly the trajectory of
//     the sequential reference (service_replay.hpp) over the same stream:
//     signatures and final allocations match bit for bit for any worker
//     count (tests/service/, tests/golden/replay_signatures.txt).
//   - query threads never touch the engines: each batch publishes an
//     immutable ShardSnapshot through an atomic release-store, so reads
//     are a single acquire-load — wait-free, never blocking a writer, and
//     never observing a half-applied batch.  Published snapshots are
//     retained by the owning shard until the service is destroyed (readers
//     therefore never race reclamation; a long-lived deployment would swap
//     the retire list for epoch-based reclamation, see DESIGN §9).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dynamic/repair_allocator.hpp"
#include "dynamic/replay_signature.hpp"
#include "dynamic/workload_events.hpp"
#include "service/request_queue.hpp"
#include "util/rng.hpp"

namespace insp {

/// One platform partition: the world a single shard serves.  `trace`
/// doubles as the arrival-tree registry — AppArrival requests index into
/// it (DynamicAllocator::apply's contract).
struct ShardSpec {
  std::vector<ApplicationSpec> apps;
  Platform platform;
  PriceCatalog catalog;
  EventTrace trace;
};

struct ServiceOptions {
  /// Worker threads draining the request queue (0 = hardware concurrency).
  int num_workers = 1;
  std::size_t queue_capacity = 1024;
  /// Epoch width for deterministic batching/coalescing; <= 0 applies every
  /// request individually (no batching, no coalescing).
  double batch_window_s = 30.0;
  /// Per-shard repair engine knobs.
  RepairOptions repair;
  std::uint64_t seed = 42;
};

/// Immutable state snapshot of one shard, published after every applied
/// batch.  Snapshots stay valid (and bit-stable) until the service is
/// destroyed, however long a reader keeps the pointer.
struct ShardSnapshot {
  std::uint64_t version = 0;  ///< batches applied (0 = post-initialize)
  bool initialized = false;   ///< initial from-scratch allocation succeeded
  int events_applied = 0;     ///< engine.apply() calls so far
  int events_coalesced = 0;   ///< requests folded away by last-write-wins
  int failures = 0;           ///< applied events with success == false
  Dollars cost = 0.0;
  int processors = 0;
  int live_apps = 0;
  /// Running replay signature over the applied events (replay_signature.hpp;
  /// unlike ScenarioResult::signature it does not append the final
  /// allocation — it must be extendable).  Equal to the sequential
  /// reference's signature after drain.
  std::uint64_t signature = 0;
  Allocation allocation;
};

struct ServiceStats {
  int shards = 0;
  unsigned workers = 0;
  std::uint64_t requests_submitted = 0;
  int events_applied = 0;
  int events_coalesced = 0;
  int failures = 0;
  /// Per-request latency (submit -> batch applied and snapshot published),
  /// in submission order per shard, shards concatenated.
  std::vector<double> latency_seconds;
};

/// Deterministic per-shard engine seed (splitmix64 of base ^ golden-ratio
/// stripe).  Shared with the sequential reference.
inline std::uint64_t shard_seed(std::uint64_t base_seed, int shard) {
  std::uint64_t x = base_seed ^ (0x9e3779b97f4a7c15ull *
                                 (static_cast<std::uint64_t>(shard) + 1));
  return splitmix64(x);
}

class AllocationService {
 public:
  AllocationService(std::vector<ShardSpec> shards, ServiceOptions options);
  ~AllocationService();

  AllocationService(const AllocationService&) = delete;
  AllocationService& operator=(const AllocationService&) = delete;

  /// Builds every shard's initial allocation (sequentially, so it is
  /// deterministic) and spawns the workers.  Call once.
  void start();

  /// Enqueues one tenant request; blocks while the queue is full.  Returns
  /// false when the shard id is out of range, the event time is not
  /// finite, the time is earlier than the last accepted request's (of any
  /// shard), or the service is finishing.  A refused request consumes no
  /// sequence number and does not move the watermark.
  /// Request order is acceptance order: concurrent submitters share one
  /// service-wide time order, so they must agree on who submits next (one
  /// merged stream) or a later time refuses an earlier one.
  bool submit(int shard, const WorkloadEvent& event);

  /// Service-wide watermark: the largest batch epoch of any accepted
  /// request (INT64_MIN before the first, and always while batching is
  /// disabled).  Raised before submit() returns true; diagnostics only.
  std::int64_t watermark_epoch() const { return watermark_.load(); }

  /// Latest published snapshot: one atomic acquire-load, wait-free, safe
  /// from any thread.  Never null after start(); valid until the service
  /// is destroyed.
  const ShardSnapshot* snapshot(int shard) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  unsigned num_workers() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Drains the queue, applies every remaining batch (including unclosed
  /// final epochs), stops the workers, and publishes final snapshots.
  /// Idempotent; submit() is refused afterwards.
  ServiceStats finish();

 private:
  struct Pending {
    std::uint64_t seq = 0;
    std::int64_t epoch = 0;
    WorkloadEvent event;
    std::chrono::steady_clock::time_point enqueued_at{};
  };

  struct Shard {
    explicit Shard(ShardSpec s) : spec(std::move(s)) {}

    ShardSpec spec;
    std::unique_ptr<DynamicAllocator> engine;

    std::atomic<std::uint64_t> submit_seq{0};  // next seq submit() hands out

    std::mutex mu;                 // guards pending + next_seq
    std::deque<Pending> pending;   // sorted by seq
    std::uint64_t next_seq = 0;    // first seq not yet extracted

    /// Single-writer ownership flag: the worker that wins the exchange is
    /// the shard's engine thread until it stores false.
    std::atomic<bool> owned{false};

    std::atomic<const ShardSnapshot*> snapshot{nullptr};

    // Owner-only state (guarded by the ownership protocol, not a lock).
    /// Every snapshot ever published, in publication order: readers hold
    /// raw pointers, so nothing is reclaimed before the service dies.
    std::vector<std::unique_ptr<const ShardSnapshot>> snapshot_history;
    ReplaySignature signature;
    std::uint64_t version = 0;
    int events_applied = 0;
    int events_coalesced = 0;
    int failures = 0;
    bool initialized = false;
    std::vector<double> latency_seconds;
  };

  void worker_loop();
  /// Drives the shard until no closed batch remains (ownership loop).
  void run_shard(Shard& shard);
  /// Extractable-prefix length: contiguous by seq, cut before the final
  /// epoch group unless that epoch is closed (draining, or below the
  /// watermark with every submitted request of the shard in the prefix).
  /// Requires shard.mu held; the single definition keeps extract_ready and
  /// the lost-wakeup recheck agreeing on what "ready" means.
  std::size_t ready_count_locked(const Shard& shard) const;
  /// Lifts watermark_ to at least `epoch` (it never falls).
  void raise_watermark(std::int64_t epoch);
  /// Moves the extractable prefix out of pending.  Empty when none.
  std::vector<Pending> extract_ready(Shard& shard);
  bool has_ready(Shard& shard);
  /// Coalesces + applies one epoch group, publishes the snapshot, records
  /// latencies.  Owner only.
  void apply_group(Shard& shard, const Pending* items, std::size_t count);
  void publish_snapshot(Shard& shard);

  ServiceOptions opt_;
  std::vector<std::unique_ptr<Shard>> shards_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> draining_{false};
  /// Orders submit(): the time check, sequence stamp and push of one
  /// request happen before the next request's time check.
  std::mutex submit_mu_;
  double last_time_ = -std::numeric_limits<double>::infinity();  // submit_mu_
  /// Largest accepted epoch.  Raised by submit() under submit_mu_ and by
  /// workers to epochs already accepted, so under submit_mu_ it is the
  /// last accepted request's epoch.
  std::atomic<std::int64_t> watermark_{
      std::numeric_limits<std::int64_t>::min()};
  bool started_ = false;
  bool finished_ = false;
  ServiceStats stats_;
};

} // namespace insp
