#include "service/allocation_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <thread>

#include "bench_support/dynamic_world.hpp"
#include "harness/service_stream.hpp"
#include "service/batch_planner.hpp"
#include "service/service_replay.hpp"

namespace insp {
namespace {

using benchx::DynamicWorld;
using benchx::make_dynamic_world;
using benchx::merged_stream;
using benchx::RoutedEvent;

WorkloadEvent rate_event(EventKind kind, int id, double value,
                         double time = 0.0) {
  WorkloadEvent e;
  e.time = time;
  e.kind = kind;
  if (kind == EventKind::RhoChange) {
    e.app_id = id;
    e.rho = value;
  } else {
    e.object_type = id;
    e.freq_hz = value;
  }
  return e;
}

// --- request queue ---------------------------------------------------------

TEST(RequestQueue, FifoWithinCapacity) {
  RequestQueue q(8);
  for (int i = 0; i < 5; ++i) {
    ServiceRequest r;
    r.shard = i;
    ASSERT_TRUE(q.push(std::move(r)));
  }
  EXPECT_EQ(q.size(), 5u);
  ServiceRequest out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.shard, i);
  }
}

TEST(RequestQueue, PushBlocksWhenFullUntilPop) {
  RequestQueue q(1);
  ServiceRequest r;
  r.shard = 0;
  ASSERT_TRUE(q.push(r));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    ServiceRequest r2;
    r2.shard = 1;
    ASSERT_TRUE(q.push(r2));  // blocks until the consumer makes room
    second_pushed.store(true);
  });
  ServiceRequest out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.shard, 0);
  ASSERT_TRUE(q.pop(out));  // waits for the producer if necessary
  EXPECT_EQ(out.shard, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(RequestQueue, CloseDrainsThenRefuses) {
  RequestQueue q(4);
  ServiceRequest r;
  r.shard = 7;
  ASSERT_TRUE(q.push(r));
  q.close();
  EXPECT_FALSE(q.push(r));  // refused after close
  ServiceRequest out;
  ASSERT_TRUE(q.pop(out));  // pending items still drain
  EXPECT_EQ(out.shard, 7);
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(RequestQueue, CloseWakesBlockedConsumer) {
  RequestQueue q(4);
  std::thread consumer([&] {
    ServiceRequest out;
    EXPECT_FALSE(q.pop(out));  // blocked until close, then false
  });
  q.close();
  consumer.join();
}

// --- batch planner ---------------------------------------------------------

TEST(BatchPlanner, EpochIsFloorOfTimeOverWindow) {
  EXPECT_EQ(batch_epoch(0.0, 30.0), 0);
  EXPECT_EQ(batch_epoch(29.9, 30.0), 0);
  EXPECT_EQ(batch_epoch(30.0, 30.0), 1);
  EXPECT_EQ(batch_epoch(65.0, 30.0), 2);
  EXPECT_EQ(batch_epoch(10.0, 0.0), 0);  // batching disabled
}

TEST(BatchPlanner, EpochClampsToTheInt64Range) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(batch_epoch(1e300, 30.0), kMax);
  EXPECT_EQ(batch_epoch(-1e300, 30.0), kMin);
  EXPECT_EQ(batch_epoch(std::numeric_limits<double>::infinity(), 30.0), kMax);
  EXPECT_EQ(batch_epoch(std::numeric_limits<double>::quiet_NaN(), 30.0), 0);
  EXPECT_EQ(batch_epoch(-1e300, 0.0), 0);  // batching disabled
}

TEST(BatchPlanner, EpochRunsSplitOnEpochChange) {
  std::vector<WorkloadEvent> events;
  for (double t : {1.0, 5.0, 29.0, 31.0, 95.0, 96.0}) {
    events.push_back(rate_event(EventKind::RhoChange, 0, 1.0, t));
  }
  const auto runs = epoch_runs(events, 30.0);
  ASSERT_EQ(runs.size(), 3u);  // epochs 0, 1, 3
  EXPECT_EQ(runs[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(runs[1], (std::pair<std::size_t, std::size_t>{3, 4}));
  EXPECT_EQ(runs[2], (std::pair<std::size_t, std::size_t>{4, 6}));
  // window <= 0: every event is its own batch.
  EXPECT_EQ(epoch_runs(events, 0.0).size(), events.size());
}

TEST(BatchPlanner, CoalesceKeepsLastUpdatePerKnob) {
  std::vector<WorkloadEvent> batch{
      rate_event(EventKind::RhoChange, 0, 0.4),
      rate_event(EventKind::RhoChange, 1, 0.6),
      rate_event(EventKind::RhoChange, 0, 0.9),
      rate_event(EventKind::ObjectRateChange, 2, 0.5),
      rate_event(EventKind::ObjectRateChange, 2, 0.7),
  };
  const CoalescedBatch out = coalesce_batch(batch);
  EXPECT_EQ(out.coalesced, 2);
  ASSERT_EQ(out.applied.size(), 3u);
  // Survivors keep the position of their last occurrence.
  EXPECT_EQ(out.applied[0].app_id, 1);
  EXPECT_DOUBLE_EQ(out.applied[1].rho, 0.9);
  EXPECT_DOUBLE_EQ(out.applied[2].freq_hz, 0.7);
}

TEST(BatchPlanner, StructuralEventsAreCoalescingBarriers) {
  WorkloadEvent departure;
  departure.kind = EventKind::AppDeparture;
  departure.app_id = 0;
  std::vector<WorkloadEvent> batch{
      rate_event(EventKind::RhoChange, 0, 0.4),
      departure,
      rate_event(EventKind::RhoChange, 0, 0.9),
  };
  const CoalescedBatch out = coalesce_batch(batch);
  // The same knob is updated twice, but never within one rate run: nothing
  // coalesces and the order is untouched.
  EXPECT_EQ(out.coalesced, 0);
  ASSERT_EQ(out.applied.size(), 3u);
  EXPECT_EQ(out.applied[1].kind, EventKind::AppDeparture);
  EXPECT_DOUBLE_EQ(out.applied[0].rho, 0.4);
  EXPECT_DOUBLE_EQ(out.applied[2].rho, 0.9);
}

TEST(BatchPlanner, IdenticalServerEventRunsCollapseToOne) {
  const auto server_event = [](EventKind kind, int server) {
    WorkloadEvent e;
    e.kind = kind;
    e.server = server;
    return e;
  };
  // A detector re-asserting a failure mid-repair: three identical failures
  // of server 2 collapse to one, but the interleaved failure of server 0
  // and the later recovery of server 2 are distinct state transitions.
  std::vector<WorkloadEvent> batch{
      server_event(EventKind::ServerFailure, 2),
      server_event(EventKind::ServerFailure, 2),
      server_event(EventKind::ServerFailure, 0),
      server_event(EventKind::ServerFailure, 2),
      server_event(EventKind::ServerRecovery, 2),
  };
  const CoalescedBatch out = coalesce_batch(batch);
  EXPECT_EQ(out.coalesced, 1);
  ASSERT_EQ(out.applied.size(), 4u);
  EXPECT_EQ(out.applied[0].kind, EventKind::ServerFailure);
  EXPECT_EQ(out.applied[0].server, 2);
  EXPECT_EQ(out.applied[1].server, 0);
  EXPECT_EQ(out.applied[2].server, 2);
  EXPECT_EQ(out.applied[3].kind, EventKind::ServerRecovery);

  // Rate updates never reorder across a server event, even a collapsed run.
  std::vector<WorkloadEvent> mixed{
      rate_event(EventKind::RhoChange, 0, 0.4),
      server_event(EventKind::ServerFailure, 1),
      server_event(EventKind::ServerFailure, 1),
      rate_event(EventKind::RhoChange, 0, 0.9),
  };
  const CoalescedBatch out2 = coalesce_batch(mixed);
  EXPECT_EQ(out2.coalesced, 1);
  ASSERT_EQ(out2.applied.size(), 3u);
  EXPECT_DOUBLE_EQ(out2.applied[0].rho, 0.4);
  EXPECT_EQ(out2.applied[1].kind, EventKind::ServerFailure);
  EXPECT_DOUBLE_EQ(out2.applied[2].rho, 0.9);
}

// --- service vs sequential reference --------------------------------------

std::vector<ShardSpec> small_shards(int count) {
  std::vector<ShardSpec> specs;
  for (int i = 0; i < count; ++i) {
    DynamicWorld world = make_dynamic_world(
        42 + 17ull * static_cast<std::uint64_t>(i), {40, 2, 24});
    specs.push_back(ShardSpec{std::move(world.apps), std::move(world.platform),
                              std::move(world.catalog),
                              std::move(world.trace)});
  }
  return specs;
}

TEST(AllocationService, InitialSnapshotPublishedOnStart) {
  ServiceOptions opt;
  opt.num_workers = 1;
  AllocationService service(small_shards(2), opt);
  service.start();
  for (int s = 0; s < service.num_shards(); ++s) {
    const auto snap = service.snapshot(s);
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->version, 0u);
    EXPECT_TRUE(snap->initialized);
    EXPECT_EQ(snap->events_applied, 0);
    EXPECT_GT(snap->cost, 0.0);
    EXPECT_GT(snap->processors, 0);
  }
  service.finish();
}

TEST(AllocationService, RejectsOutOfRangeShard) {
  ServiceOptions opt;
  opt.num_workers = 1;
  AllocationService service(small_shards(1), opt);
  service.start();
  WorkloadEvent e = rate_event(EventKind::RhoChange, 0, 0.7);
  EXPECT_FALSE(service.submit(-1, e));
  EXPECT_FALSE(service.submit(1, e));
  EXPECT_TRUE(service.submit(0, e));
  service.finish();
}

TEST(AllocationService, RejectsNonFiniteTime) {
  ServiceOptions opt;
  opt.num_workers = 1;
  AllocationService service(small_shards(1), opt);
  service.start();
  const auto rho_at = [](double t) {
    return rate_event(EventKind::RhoChange, 0, 0.7, t);
  };
  for (double t : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(service.submit(0, rho_at(t))) << t;
  }
  // A huge finite time is accepted: its epoch clamps to the int64 limit.
  EXPECT_TRUE(service.submit(0, rho_at(1e300)));
  EXPECT_EQ(service.finish().requests_submitted, 1u);
}

TEST(AllocationService, MatchesSequentialReferenceForEveryWorkerCount) {
  // The same two-shard deployment driven with 1, 2 and 4 workers must land
  // on the bit-identical per-shard trajectory the sequential reference
  // computes — replay signatures AND final allocations.
  const std::vector<ShardSpec> specs = small_shards(2);
  ServiceOptions opt;
  opt.queue_capacity = 16;  // force producer backpressure too
  std::vector<ShardReplayResult> reference;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    reference.push_back(
        replay_shard_sequential(specs[s], static_cast<int>(s), opt));
    ASSERT_TRUE(reference.back().initialized);
  }

  for (int workers : {1, 2, 4}) {
    opt.num_workers = workers;
    AllocationService service(specs, opt);
    service.start();
    for (const RoutedEvent& r : merged_stream(specs)) {
      ASSERT_TRUE(service.submit(r.shard, *r.event));
    }
    const ServiceStats stats = service.finish();

    EXPECT_EQ(stats.requests_submitted,
              specs.size() * specs[0].trace.events.size());
    EXPECT_EQ(stats.latency_seconds.size(), stats.requests_submitted);
    int ref_applied = 0, ref_coalesced = 0, ref_failures = 0;
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const auto snap = service.snapshot(static_cast<int>(s));
      const ShardReplayResult& ref = reference[s];
      EXPECT_EQ(snap->signature, ref.signature)
          << "shard " << s << " with " << workers << " workers";
      EXPECT_TRUE(snap->allocation == ref.final_allocation);
      EXPECT_EQ(snap->events_applied, ref.events_applied);
      EXPECT_EQ(snap->events_coalesced, ref.events_coalesced);
      EXPECT_EQ(snap->failures, ref.failures);
      EXPECT_DOUBLE_EQ(snap->cost, ref.final_cost);
      ref_applied += ref.events_applied;
      ref_coalesced += ref.events_coalesced;
      ref_failures += ref.failures;
    }
    EXPECT_EQ(stats.events_applied, ref_applied);
    EXPECT_EQ(stats.events_coalesced, ref_coalesced);
    EXPECT_EQ(stats.failures, ref_failures);
    EXPECT_EQ(static_cast<std::uint64_t>(stats.events_applied +
                                         stats.events_coalesced),
              stats.requests_submitted);
  }
}

TEST(AllocationService, HeldEpochClosesOnALaterRequestToAnotherShard) {
  // Shard 0's only request is in epoch 0; nothing later ever arrives for
  // shard 0.  A shard-1 request in epoch 1 moves the service-wide
  // watermark past epoch 0, which must close shard 0's epoch before
  // finish() drains it.
  ServiceOptions opt;
  opt.num_workers = 2;
  AllocationService service(small_shards(2), opt);
  service.start();
  ASSERT_TRUE(service.submit(0, rate_event(EventKind::RhoChange, 0, 0.7,
                                           0.0)));
  ASSERT_TRUE(service.submit(
      1, rate_event(EventKind::RhoChange, 0, 0.8, opt.batch_window_s)));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool visible = false;
  while (!visible && std::chrono::steady_clock::now() < deadline) {
    const ShardSnapshot* snap = service.snapshot(0);
    visible = snap->events_applied + snap->events_coalesced == 1;
    if (!visible) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(visible) << "shard 0's epoch 0 stayed held back";
  EXPECT_EQ(service.finish().requests_submitted, 2u);
}

TEST(AllocationService, RejectsTimeGoingBackwards) {
  const std::vector<ShardSpec> specs = small_shards(2);
  ServiceOptions opt;
  opt.num_workers = 2;
  std::vector<ShardReplayResult> reference;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    reference.push_back(
        replay_shard_sequential(specs[s], static_cast<int>(s), opt));
  }
  const std::vector<RoutedEvent> stream = merged_stream(specs);
  const std::size_t half = stream.size() / 2;
  ASSERT_LT(stream.front().event->time, stream[half - 1].event->time);

  AllocationService service(specs, opt);
  service.start();
  for (std::size_t k = 0; k < half; ++k) {
    ASSERT_TRUE(service.submit(stream[k].shard, *stream[k].event));
  }
  const std::int64_t watermark = service.watermark_epoch();
  EXPECT_EQ(watermark,
            batch_epoch(stream[half - 1].event->time, opt.batch_window_s));
  // Earlier than the last accepted request, on either shard: refused.
  EXPECT_FALSE(service.submit(0, *stream.front().event));
  EXPECT_FALSE(service.submit(1, *stream.front().event));
  // Refused for its shard, however late: the watermark stays put.
  EXPECT_FALSE(service.submit(
      2, rate_event(EventKind::RhoChange, 0, 0.7, 1e9)));
  EXPECT_EQ(service.watermark_epoch(), watermark);
  for (std::size_t k = half; k < stream.size(); ++k) {
    ASSERT_TRUE(service.submit(stream[k].shard, *stream[k].event));
  }
  const ServiceStats stats = service.finish();
  EXPECT_EQ(stats.requests_submitted, stream.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(service.snapshot(static_cast<int>(s))->signature,
              reference[s].signature)
        << "shard " << s;
  }
  // A finishing service refuses even an in-order request, and the
  // watermark stays where the last accepted one left it.
  const std::int64_t drained = service.watermark_epoch();
  EXPECT_FALSE(service.submit(0, rate_event(EventKind::RhoChange, 0, 0.7,
                                            1e9)));
  EXPECT_EQ(service.watermark_epoch(), drained);
}

TEST(AllocationService, BatchingDisabledAppliesEveryRequest) {
  const std::vector<ShardSpec> specs = small_shards(1);
  ServiceOptions opt;
  opt.num_workers = 2;
  opt.batch_window_s = 0.0;  // per-request application, nothing coalesces
  const ShardReplayResult reference =
      replay_shard_sequential(specs[0], 0, opt);
  EXPECT_EQ(reference.events_coalesced, 0);

  AllocationService service(specs, opt);
  service.start();
  for (const WorkloadEvent& event : specs[0].trace.events) {
    ASSERT_TRUE(service.submit(0, event));
  }
  service.finish();
  const auto snap = service.snapshot(0);
  EXPECT_EQ(snap->events_coalesced, 0);
  EXPECT_EQ(snap->events_applied,
            static_cast<int>(specs[0].trace.events.size()));
  EXPECT_EQ(snap->signature, reference.signature);
  EXPECT_TRUE(snap->allocation == reference.final_allocation);
}

TEST(AllocationService, ShardSeedIsStablePerShard) {
  EXPECT_EQ(shard_seed(42, 0), shard_seed(42, 0));
  EXPECT_NE(shard_seed(42, 0), shard_seed(42, 1));
  EXPECT_NE(shard_seed(42, 0), shard_seed(43, 0));
}

} // namespace
} // namespace insp
