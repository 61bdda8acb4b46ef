// Sequential per-shard reference for the allocation service: one thread,
// one shard, the same epoch batching, coalescing, seed derivation, and
// signature mixing as AllocationService.  A concurrent service run is
// correct iff, for every shard, the post-drain ShardSnapshot matches this
// function's result bit for bit (signature and final allocation) — the
// contract the service stress test, the golden-signature regression, and
// bench_service all check.
#pragma once

#include "service/allocation_service.hpp"

namespace insp {

struct ShardReplayResult {
  bool initialized = false;
  int events_applied = 0;
  int events_coalesced = 0;
  int failures = 0;
  Dollars final_cost = 0.0;
  int processors = 0;
  /// Running replay signature over the applied events (no final-allocation
  /// mix; see ShardSnapshot::signature).
  std::uint64_t signature = 0;
  Allocation final_allocation;
};

/// Replays `spec.trace` against the shard's world exactly as the service
/// would: epoch runs -> coalesce -> apply, seeded with
/// shard_seed(options.seed, shard_index).  Only `repair.always_fallback`,
/// `seed` and `batch_window_s` matter here; `num_workers` and
/// `queue_capacity` are ignored.
ShardReplayResult replay_shard_sequential(const ShardSpec& spec,
                                          int shard_index,
                                          const ServiceOptions& options);

} // namespace insp
