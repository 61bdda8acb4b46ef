// Bounded multi-producer / multi-consumer request queue: the front door of
// the allocation service.  Producers (tenant-facing threads) block when the
// queue is full — backpressure instead of unbounded memory — and workers
// block when it is empty.  close() wakes everyone: pending items are still
// drained by pop(), further push()es are refused.
//
// The queue is deliberately a plain mutex + two condition variables: at
// service scale the per-request cost is dominated by the repair work the
// request triggers (tens of microseconds to milliseconds), so a lock-free
// ring would buy nothing measurable while complicating the close/drain
// semantics the service relies on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>

#include "dynamic/workload_events.hpp"

namespace insp {

/// One tenant request: a workload event bound for a shard.  `seq` is the
/// shard-local submission index (assigned by AllocationService::submit);
/// shard runners use it to restore per-shard order when several workers
/// pop requests of the same shard concurrently.  `epoch` is the request's
/// batch epoch, and `raises_watermark` marks the first accepted request of
/// a later epoch than every earlier one (the worker that pops it closes
/// the other shards' older epochs).  `enqueued_at` feeds the
/// request-latency histogram.
struct ServiceRequest {
  int shard = -1;
  std::uint64_t seq = 0;
  std::int64_t epoch = 0;
  bool raises_watermark = false;
  WorkloadEvent event;
  std::chrono::steady_clock::time_point enqueued_at{};
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  RequestQueue(const RequestQueue&) = delete;
  RequestQueue& operator=(const RequestQueue&) = delete;

  /// Blocks while the queue is full.  Returns false — and drops the
  /// request — iff the queue was closed.
  bool push(ServiceRequest request);

  /// Blocks while the queue is empty.  Returns false iff the queue is
  /// closed *and* fully drained.
  bool pop(ServiceRequest& out);

  /// Idempotent.  Wakes every blocked producer and consumer.
  void close();

  std::size_t capacity() const { return capacity_; }
  /// Instantaneous size (tests/diagnostics only — stale by the time the
  /// caller looks at it).
  std::size_t size() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_space_;  ///< signals producers: slot free / closed
  std::condition_variable cv_items_;  ///< signals consumers: item ready / closed
  std::deque<ServiceRequest> items_;
  bool closed_ = false;
};

} // namespace insp
