#include "dynamic/workload_events.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dynamic_test_helpers.hpp"
#include "tree/tree_io.hpp"

namespace insp {
namespace {

using dyntest::make_world;
using dyntest::small_trace_config;

bool events_equal(const WorkloadEvent& a, const WorkloadEvent& b) {
  return a.time == b.time && a.kind == b.kind && a.app_id == b.app_id &&
         a.rho == b.rho && a.object_type == b.object_type &&
         a.freq_hz == b.freq_hz && a.server == b.server &&
         a.arrival_tree == b.arrival_tree;
}

TEST(TraceGenerator, DeterministicGivenSeed) {
  const auto w = make_world(11);
  const TraceGenConfig tg = small_trace_config(60);
  Rng r1(99), r2(99);
  const EventTrace a = generate_trace(r1, tg, 2, 0.5, w.platform, w.objects);
  const EventTrace b = generate_trace(r2, tg, 2, 0.5, w.platform, w.objects);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_TRUE(events_equal(a.events[i], b.events[i])) << "event " << i;
  }
  ASSERT_EQ(a.arrival_trees.size(), b.arrival_trees.size());
  for (std::size_t i = 0; i < a.arrival_trees.size(); ++i) {
    EXPECT_EQ(to_text(a.arrival_trees[i], tg.arrival_tree.alpha),
              to_text(b.arrival_trees[i], tg.arrival_tree.alpha));
  }
}

TEST(TraceGenerator, EventPreconditionsHoldUnderReplay) {
  const auto w = make_world(12);
  const TraceGenConfig tg = small_trace_config(120);
  Rng rng(7);
  const EventTrace trace =
      generate_trace(rng, tg, 2, 0.5, w.platform, w.objects);
  ASSERT_EQ(trace.events.size(), 120u);

  // Mirror the world exactly as a replay would and check every event is
  // applicable at its position.
  std::set<int> live{0, 1};
  std::set<int> down;
  double last_time = 0.0;
  int next_id = 2;
  for (const WorkloadEvent& e : trace.events) {
    EXPECT_GE(e.time, last_time);
    last_time = e.time;
    switch (e.kind) {
      case EventKind::RhoChange:
        EXPECT_TRUE(live.count(e.app_id)) << "rho change on dead app";
        EXPECT_GE(e.rho, tg.rho_min);
        EXPECT_LE(e.rho, tg.rho_max);
        break;
      case EventKind::ObjectRateChange:
        EXPECT_GE(e.object_type, 0);
        EXPECT_LT(e.object_type, w.objects.count());
        EXPECT_GE(e.freq_hz, tg.freq_lo);
        EXPECT_LE(e.freq_hz, tg.freq_hi);
        break;
      case EventKind::ServerFailure:
        EXPECT_FALSE(down.count(e.server)) << "failing a down server";
        down.insert(e.server);
        EXPECT_LE(static_cast<int>(down.size()), tg.max_servers_down);
        break;
      case EventKind::ServerRecovery:
        EXPECT_TRUE(down.count(e.server)) << "recovering an up server";
        down.erase(e.server);
        break;
      case EventKind::AppArrival:
        EXPECT_EQ(e.app_id, next_id++);
        ASSERT_GE(e.arrival_tree, 0);
        ASSERT_LT(static_cast<std::size_t>(e.arrival_tree),
                  trace.arrival_trees.size());
        live.insert(e.app_id);
        EXPECT_LE(static_cast<int>(live.size()), tg.max_live_apps);
        break;
      case EventKind::AppDeparture:
        EXPECT_TRUE(live.count(e.app_id)) << "departing a dead app";
        live.erase(e.app_id);
        EXPECT_GE(static_cast<int>(live.size()), tg.min_live_apps);
        break;
    }
  }
}

TEST(TraceIo, TextRoundTripIsExact) {
  const auto w = make_world(13);
  const TraceGenConfig tg = small_trace_config(50);
  Rng rng(3);
  const EventTrace trace =
      generate_trace(rng, tg, 2, 0.5, w.platform, w.objects);
  const std::string text = trace_to_text(trace);
  const EventTrace back = trace_from_text(text);
  ASSERT_EQ(back.events.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_TRUE(events_equal(trace.events[i], back.events[i]))
        << "event " << i;
  }
  EXPECT_EQ(back.arrival_alpha, trace.arrival_alpha);
  ASSERT_EQ(back.arrival_trees.size(), trace.arrival_trees.size());
  for (std::size_t i = 0; i < trace.arrival_trees.size(); ++i) {
    EXPECT_EQ(to_text(back.arrival_trees[i], trace.arrival_alpha),
              to_text(trace.arrival_trees[i], trace.arrival_alpha));
  }
  // Idempotence: serializing the parsed trace reproduces the text.
  EXPECT_EQ(trace_to_text(back), text);
}

TEST(TraceIo, RejectsMalformedInput) {
  EXPECT_THROW(trace_from_text("not a trace"), std::invalid_argument);
  EXPECT_THROW(trace_from_text("cinsp-trace 1\nevent oops"),
               std::invalid_argument);
  EXPECT_THROW(trace_from_text("cinsp-trace 1\ntree 0\nop 0 parent -1\n"),
               std::invalid_argument);  // unterminated tree block
}

TEST(TraceIo, RejectsOutOfRangeIndices) {
  // Negative server on a failure event.
  EXPECT_THROW(
      trace_from_text(
          "cinsp-trace 1\nevent 1 server-failure -1 1 -1 0 -2 -1\n"),
      std::invalid_argument);
  // Arrival referencing a tree the trace does not carry.
  EXPECT_THROW(
      trace_from_text("cinsp-trace 1\nevent 1 app-arrival 2 0.5 -1 0 -1 0\n"),
      std::invalid_argument);
  // Non-positive frequency on a rate change.
  EXPECT_THROW(
      trace_from_text(
          "cinsp-trace 1\nevent 1 object-rate-change -1 1 3 0 -1 -1\n"),
      std::invalid_argument);
}

TEST(TraceIo, RejectsBadArrivalParameters) {
  const std::string header = "cinsp-trace 1\n";
  const EventTrace good =
      trace_from_text(header + "arrival_alpha 0.5\narrival_work_scale 2\n");
  EXPECT_EQ(good.arrival_alpha, 0.5);
  EXPECT_EQ(good.arrival_work_scale, 2.0);
  // A failed parse throws instead of loading 0, and the work scale must be
  // > 0, as from_text requires of a tree's own alpha line.
  for (const char* bad :
       {"arrival_alpha banana\n", "arrival_alpha\n",
        "arrival_work_scale -2\n", "arrival_work_scale 0\n",
        "arrival_work_scale x\n"}) {
    EXPECT_THROW(trace_from_text(header + bad), std::invalid_argument) << bad;
  }
}

TEST(TraceGenerator, EmptyTraceConfig) {
  const auto w = make_world(14);
  TraceGenConfig tg = small_trace_config(0);
  Rng rng(1);
  const EventTrace trace =
      generate_trace(rng, tg, 2, 0.5, w.platform, w.objects);
  EXPECT_TRUE(trace.events.empty());
  EXPECT_EQ(trace_from_text(trace_to_text(trace)).events.size(), 0u);
}

} // namespace
} // namespace insp
