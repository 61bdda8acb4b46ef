// Concurrency stress for the allocation service: producer threads blasting
// the shards' time-merged traces through the bounded queue, query threads
// hammering the lock-free snapshots the whole time, and worker counts
// beyond the shard count — then every shard's trajectory and final
// allocation are checked bit for bit against the sequential reference.  This binary is the core
// of the ThreadSanitizer CI job (INSP_TSAN), so every synchronization path
// of src/service/ runs under TSan on every PR.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/dynamic_world.hpp"
#include "harness/service_stream.hpp"
#include "service/allocation_service.hpp"
#include "service/service_replay.hpp"

namespace insp {
namespace {

using benchx::DynamicWorld;
using benchx::make_dynamic_world;
using benchx::merged_stream;

std::vector<ShardSpec> stress_shards(int count,
                                     benchx::DynamicWorldScale scale) {
  std::vector<ShardSpec> specs;
  for (int i = 0; i < count; ++i) {
    DynamicWorld world =
        make_dynamic_world(42 + 977ull * static_cast<std::uint64_t>(i), scale);
    specs.push_back(ShardSpec{std::move(world.apps), std::move(world.platform),
                              std::move(world.catalog),
                              std::move(world.trace)});
  }
  return specs;
}

std::vector<ShardReplayResult> sequential_reference(
    const std::vector<ShardSpec>& specs, const ServiceOptions& opt) {
  std::vector<ShardReplayResult> reference;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    reference.push_back(
        replay_shard_sequential(specs[s], static_cast<int>(s), opt));
    EXPECT_TRUE(reference.back().initialized) << "shard " << s;
  }
  return reference;
}

/// Requests in submission order.
using Stream = std::vector<benchx::RoutedEvent>;

/// Drives one full service run with the producers + query threads, then
/// checks every shard's drained snapshot — signature and final allocation
/// — against the sequential reference.  The producer threads share one
/// cursor into `stream` and submit under its mutex, so requests are
/// accepted in stream order whichever thread carries each one.
void run_service(const std::vector<ShardSpec>& specs, const ServiceOptions& opt,
                 const Stream& stream, int producer_threads, int query_threads,
                 const std::vector<ShardReplayResult>& reference,
                 const std::string& label) {
  AllocationService service(specs, opt);
  service.start();

  std::atomic<bool> stop_queries{false};
  std::vector<std::thread> queries;
  for (int t = 0; t < query_threads; ++t) {
    queries.emplace_back([&service, &stop_queries, t] {
      // Readers check what lock-free snapshots guarantee: never null, never
      // torn (version/applied counts monotonic per shard, allocation
      // internally consistent with its own scalar fields).
      const int shard =
          t % (service.num_shards() > 0 ? service.num_shards() : 1);
      std::uint64_t last_version = 0;
      int last_applied = 0;
      while (!stop_queries.load()) {
        const auto snap = service.snapshot(shard);
        ASSERT_NE(snap, nullptr);
        ASSERT_GE(snap->version, last_version);
        ASSERT_GE(snap->events_applied, last_applied);
        ASSERT_EQ(snap->processors,
                  static_cast<int>(snap->allocation.processors.size()));
        ASSERT_GE(snap->cost, 0.0);
        last_version = snap->version;
        last_applied = snap->events_applied;
      }
    });
  }

  std::vector<std::thread> producers;
  const std::size_t requests = stream.size();
  std::mutex cursor_mu;
  std::size_t cursor = 0;
  for (int t = 0; t < producer_threads; ++t) {
    producers.emplace_back([&] {
      while (true) {
        std::lock_guard<std::mutex> lock(cursor_mu);
        if (cursor == stream.size()) return;
        const benchx::RoutedEvent& r = stream[cursor++];
        ASSERT_TRUE(service.submit(r.shard, *r.event));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  const ServiceStats stats = service.finish();
  stop_queries.store(true);
  for (std::thread& t : queries) t.join();

  EXPECT_EQ(stats.requests_submitted, requests);
  EXPECT_EQ(static_cast<std::uint64_t>(stats.events_applied +
                                       stats.events_coalesced),
            stats.requests_submitted);
  EXPECT_EQ(stats.latency_seconds.size(), stats.requests_submitted);
  for (double latency : stats.latency_seconds) EXPECT_GE(latency, 0.0);

  ASSERT_EQ(service.num_shards(), static_cast<int>(reference.size()));
  for (int s = 0; s < service.num_shards(); ++s) {
    const auto snap = service.snapshot(s);
    const ShardReplayResult& ref = reference[static_cast<std::size_t>(s)];
    EXPECT_TRUE(snap->initialized);
    EXPECT_EQ(snap->signature, ref.signature)
        << "shard " << s << " diverged: " << label;
    EXPECT_TRUE(snap->allocation == ref.final_allocation)
        << "shard " << s << " final allocation differs: " << label;
  }
}

TEST(ServiceStress, ConcurrentRunIsBitIdenticalToSequentialReplay) {
  // 4 shards x 60 events, tight queue (forces producer backpressure), more
  // workers than cores on most CI boxes — then the whole thing again with
  // different worker counts: every run must land on the reference.
  const std::vector<ShardSpec> specs = stress_shards(4, {48, 2, 60});
  ServiceOptions opt;
  opt.queue_capacity = 32;
  const std::vector<ShardReplayResult> reference =
      sequential_reference(specs, opt);
  for (int workers : {1, 4, 8}) {
    opt.num_workers = workers;
    run_service(specs, opt, merged_stream(specs), /*producer_threads=*/4,
                /*query_threads=*/3, reference,
                std::to_string(workers) + " workers");
  }
}

TEST(ServiceStress, ManyWorkersFewShardsKeepOrdering) {
  // More workers than shards maximizes the pop-reordering window the
  // sequence numbers exist to fix; single-event epochs (window 0) make
  // every request an independent application so any ordering slip would
  // change the trajectory.
  const std::vector<ShardSpec> specs = stress_shards(2, {40, 2, 48});
  ServiceOptions opt;
  opt.num_workers = 8;
  opt.queue_capacity = 8;
  opt.batch_window_s = 0.0;
  run_service(specs, opt, merged_stream(specs), /*producer_threads=*/2,
              /*query_threads=*/2, sequential_reference(specs, opt),
              "window 0");
}

TEST(ServiceStress, BenchmarkShapedRunsMatchTheReference) {
  // The benchmark's service shape at a shorter stream: 4 shards of N = 400
  // operators over 6 applications, 2 workers, one producer submitting the
  // time-merged stream, one reader — five times over.
  const std::vector<ShardSpec> specs = stress_shards(4, {400, 6, 300});
  ServiceOptions opt;
  opt.num_workers = 2;
  const std::vector<ShardReplayResult> reference =
      sequential_reference(specs, opt);
  const Stream stream = merged_stream(specs);
  for (int rep = 0; rep < 5; ++rep) {
    run_service(specs, opt, stream, /*producer_threads=*/1,
                /*query_threads=*/1, reference,
                "repetition " + std::to_string(rep));
  }
}

} // namespace
} // namespace insp
