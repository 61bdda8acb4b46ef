#include "service/allocation_service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "service/batch_planner.hpp"
#include "util/thread_pool.hpp"

namespace insp {

AllocationService::AllocationService(std::vector<ShardSpec> shards,
                                     ServiceOptions options)
    : opt_(options), queue_(options.queue_capacity) {
  shards_.reserve(shards.size());
  for (ShardSpec& spec : shards) {
    shards_.push_back(std::make_unique<Shard>(std::move(spec)));
  }
}

AllocationService::~AllocationService() {
  if (started_ && !finished_) {
    queue_.close();
    for (std::thread& t : workers_) t.join();
  }
}

void AllocationService::start() {
  assert(!started_);
  started_ = true;
  // Sequential initialization: the initial from-scratch allocations are
  // part of the deterministic trajectory, and a few hundred milliseconds
  // of startup is not what the service optimizes.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    shard.engine = std::make_unique<DynamicAllocator>(
        shard.spec.apps, shard.spec.platform, shard.spec.catalog,
        opt_.repair);
    const RepairReport init =
        shard.engine->initialize(shard_seed(opt_.seed, static_cast<int>(i)));
    shard.initialized = init.success;
    if (!init.success) ++shard.failures;
    publish_snapshot(shard);
  }
  const unsigned n = ThreadPool::resolve_num_threads(
      opt_.num_workers < 0 ? 0 : static_cast<unsigned>(opt_.num_workers));
  workers_.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

bool AllocationService::submit(int shard, const WorkloadEvent& event) {
  if (shard < 0 || shard >= num_shards()) return false;
  if (!std::isfinite(event.time)) return false;
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  const bool batching = opt_.batch_window_s > 0.0;
  std::lock_guard<std::mutex> lock(submit_mu_);
  if (event.time < last_time_) return false;
  ServiceRequest req;
  req.shard = shard;
  req.seq = sh.submit_seq.fetch_add(1);
  // Batching disabled: every request is its own epoch (and thus its own
  // singleton batch), otherwise a worker that extracts several requests at
  // once would coalesce across them — a timing-dependent batch shape.
  const std::int64_t epoch =
      batching ? batch_epoch(event.time, opt_.batch_window_s)
               : static_cast<std::int64_t>(req.seq);
  req.epoch = epoch;
  const bool raises = batching && epoch > watermark_.load();
  req.raises_watermark = raises;
  req.event = event;
  req.enqueued_at = std::chrono::steady_clock::now();
  if (!queue_.push(std::move(req))) {
    // Refused (service finishing): hand the sequence number back, or the
    // gap would strand every later request of this shard at drain time.
    sh.submit_seq.fetch_sub(1);
    return false;
  }
  last_time_ = event.time;
  if (raises) raise_watermark(epoch);
  return true;
}

void AllocationService::raise_watermark(std::int64_t epoch) {
  std::int64_t cur = watermark_.load();
  while (cur < epoch && !watermark_.compare_exchange_weak(cur, epoch)) {
  }
}

const ShardSnapshot* AllocationService::snapshot(int shard) const {
  if (shard < 0 || shard >= num_shards()) return nullptr;
  return shards_[static_cast<std::size_t>(shard)]->snapshot.load(
      std::memory_order_acquire);
}

void AllocationService::worker_loop() {
  ServiceRequest req;
  while (queue_.pop(req)) {
    Shard& shard = *shards_[static_cast<std::size_t>(req.shard)];
    // submit() raises the watermark only after its push, so this worker may
    // have popped the request first: raise it here too, before any shard
    // below reads it.
    if (req.raises_watermark) raise_watermark(req.epoch);
    Pending item;
    item.seq = req.seq;
    item.epoch = req.epoch;
    item.event = req.event;
    item.enqueued_at = req.enqueued_at;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      // Insert keeping seq order; a request travels the queue out of order
      // only when another worker overtook us, so scanning from the back
      // terminates almost immediately.
      auto pos = shard.pending.end();
      while (pos != shard.pending.begin() && (pos - 1)->seq > item.seq) {
        --pos;
      }
      shard.pending.insert(pos, std::move(item));
    }
    run_shard(shard);
    // A new epoch may have closed the last held-back group of every other
    // shard.
    if (req.raises_watermark) {
      for (std::unique_ptr<Shard>& other : shards_) {
        if (other.get() != &shard) run_shard(*other);
      }
    }
  }
}

std::size_t AllocationService::ready_count_locked(const Shard& shard) const {
  // Contiguous-by-seq prefix: everything submitted before it has arrived.
  std::size_t m = 0;
  std::uint64_t expect = shard.next_seq;
  while (m < shard.pending.size() && shard.pending[m].seq == expect) {
    ++m;
    ++expect;
  }
  if (m == 0) return 0;
  std::size_t cut = m;
  if (!draining_.load() && opt_.batch_window_s > 0.0) {
    // The final epoch group in the prefix may still grow (a same-epoch
    // request can arrive later).  Earlier groups are closed by the events
    // after them.  The final one is closed once a later epoch was accepted
    // anywhere (times are non-decreasing service-wide, so no request of
    // this epoch can follow) and every request stamped for the shard so
    // far is in the prefix.  submit_seq is read after the watermark: every
    // seq stamped before the raising request is then counted.
    const std::int64_t last_epoch = shard.pending[cut - 1].epoch;
    const bool closed = last_epoch < watermark_.load() &&
                        shard.next_seq + m == shard.submit_seq.load();
    if (!closed) {
      while (cut > 0 && shard.pending[cut - 1].epoch == last_epoch) --cut;
    }
  }
  return cut;
}

std::vector<AllocationService::Pending> AllocationService::extract_ready(
    Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.mu);
  const std::size_t cut = ready_count_locked(shard);
  if (cut == 0) return {};
  std::vector<Pending> out;
  out.reserve(cut);
  for (std::size_t i = 0; i < cut; ++i) {
    out.push_back(std::move(shard.pending[i]));
  }
  shard.pending.erase(shard.pending.begin(),
                      shard.pending.begin() + static_cast<std::ptrdiff_t>(cut));
  shard.next_seq += cut;
  return out;
}

bool AllocationService::has_ready(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.mu);
  return ready_count_locked(shard) > 0;
}

void AllocationService::run_shard(Shard& shard) {
  while (true) {
    if (shard.owned.exchange(true)) return;  // another worker drives it
    for (std::vector<Pending> items = extract_ready(shard); !items.empty();
         items = extract_ready(shard)) {
      // The extracted prefix may span several epoch groups; each group is
      // one batch with its own repair pass and snapshot.
      std::size_t first = 0;
      for (std::size_t i = 1; i <= items.size(); ++i) {
        if (i == items.size() || items[i].epoch != items[first].epoch) {
          apply_group(shard, items.data() + first, i - first);
          first = i;
        }
      }
    }
    shard.owned.store(false);
    // Re-check after releasing: a worker that failed the exchange while we
    // were past our last extract left work behind (lost-wakeup guard).
    if (!has_ready(shard)) return;
  }
}

void AllocationService::apply_group(Shard& shard, const Pending* items,
                                    std::size_t count) {
  std::vector<WorkloadEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) events.push_back(items[i].event);
  const CoalescedBatch batch = coalesce_batch(events);
  for (const WorkloadEvent& event : batch.applied) {
    const RepairReport rep = shard.engine->apply(event, shard.spec.trace);
    if (!rep.success) ++shard.failures;
    ++shard.events_applied;
    shard.signature.mix_repair(event.kind, rep,
                               shard.engine->allocation().num_processors());
  }
  shard.events_coalesced += batch.coalesced;
  ++shard.version;
  publish_snapshot(shard);
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    shard.latency_seconds.push_back(
        std::chrono::duration<double>(now - items[i].enqueued_at).count());
  }
}

void AllocationService::publish_snapshot(Shard& shard) {
  auto snap = std::make_unique<ShardSnapshot>();
  snap->version = shard.version;
  snap->initialized = shard.initialized;
  snap->events_applied = shard.events_applied;
  snap->events_coalesced = shard.events_coalesced;
  snap->failures = shard.failures;
  snap->cost = shard.engine->cost();
  snap->processors = shard.engine->allocation().num_processors();
  snap->live_apps = shard.engine->num_live_apps();
  snap->signature = shard.signature.h;
  snap->allocation = shard.engine->allocation();
  const ShardSnapshot* raw = snap.get();
  shard.snapshot_history.push_back(std::move(snap));
  shard.snapshot.store(raw, std::memory_order_release);
}

ServiceStats AllocationService::finish() {
  if (finished_) return stats_;
  assert(started_);
  finished_ = true;
  // Stop accepting, let the workers drain the queue completely, then join:
  // after the join every request is in some shard's pending list.
  queue_.close();
  for (std::thread& t : workers_) t.join();
  // Final flush on the caller's thread: unclosed epochs are now final.
  draining_.store(true);
  for (std::unique_ptr<Shard>& shard : shards_) {
    run_shard(*shard);
    assert(shard->pending.empty());
  }
  stats_.shards = num_shards();
  stats_.workers = static_cast<unsigned>(workers_.size());
  for (std::unique_ptr<Shard>& shard : shards_) {
    stats_.requests_submitted += shard->submit_seq.load();
    stats_.events_applied += shard->events_applied;
    stats_.events_coalesced += shard->events_coalesced;
    stats_.failures += shard->failures;
    stats_.latency_seconds.insert(stats_.latency_seconds.end(),
                                  shard->latency_seconds.begin(),
                                  shard->latency_seconds.end());
  }
  return stats_;
}

} // namespace insp
