// Differential oracle suite (docs/DESIGN.md §12): for beat-loss chaos
// traces the failure detector's inferred event stream must drive
// DynamicAllocator repair to *exactly* the same place as the ground-truth
// oracle trace — same final allocation, same replay signature — because
// the generator's detectability floors make inference 1:1 with ground
// truth and order-preserving, and the signature mixes repair outcomes,
// never event times.  Detection latency may shift *when* repairs happen;
// it must never change *what* they do.  Swept over >= 20 seeds.
#include <gtest/gtest.h>

#include <string>

#include "dynamic/scenario_engine.hpp"
#include "harness/chaos_world.hpp"
#include "health/health_monitor.hpp"

namespace insp {
namespace {

using benchx::ChaosWorld;
using benchx::make_chaos_world;

HealthMonitorOptions monitor_options(const ChaosGenConfig& cfg,
                                     std::uint64_t seed) {
  HealthMonitorOptions opts;
  opts.detector.beat_interval_s = cfg.beat_interval_s;
  opts.detector.timeout_beats = cfg.timeout_beats;
  opts.detector.recovery_beats = cfg.recovery_beats;
  opts.replay.seed = seed;
  opts.replay.simulate = false;  // the signature covers trajectory + allocation
  return opts;
}

TEST(HealthMonitor, InferredRepairsMatchOracleReplayAcrossSeeds) {
  ChaosGenConfig cfg;
  cfg.w_brownout = 0.0;  // beat-loss family: the oracle-equivalence rule
  cfg.num_faults = 4;
  for (std::uint64_t seed = 1; seed <= 21; ++seed) {
    const ChaosWorld world = make_chaos_world(seed, {40, 2}, cfg);
    const EventTrace oracle = chaos_oracle_trace(world.trace);

    const HealthMonitorResult run = run_health_monitor(
        world.apps, world.platform, world.catalog, world.trace,
        monitor_options(cfg, seed));
    const ScenarioResult& inferred = run.replay;

    ScenarioOptions ropts;
    ropts.seed = seed;
    ropts.simulate = false;
    const ScenarioResult reference = replay_trace(
        world.apps, world.platform, world.catalog, oracle, ropts);

    // 1:1, order-preserving inference: same event kinds against the same
    // servers, in the same order.
    ASSERT_EQ(inferred.outcomes.size(), oracle.events.size())
        << "seed " << seed;
    for (std::size_t i = 0; i < oracle.events.size(); ++i) {
      EXPECT_EQ(inferred.outcomes[i].event.kind, oracle.events[i].kind)
          << "seed " << seed << " event " << i;
      EXPECT_EQ(inferred.outcomes[i].event.server, oracle.events[i].server)
          << "seed " << seed << " event " << i;
      // ... and detection always lags ground truth, never precedes it.
      EXPECT_GE(inferred.outcomes[i].event.time, oracle.events[i].time);
    }
    // The destination is identical: allocation and trajectory signature.
    EXPECT_TRUE(inferred.final_allocation == reference.final_allocation)
        << "seed " << seed;
    EXPECT_EQ(inferred.signature, reference.signature) << "seed " << seed;
    // Every inferred repair succeeded (the floors guarantee the world the
    // allocator sees is always consistent).
    EXPECT_EQ(inferred.summary.failures, 0) << "seed " << seed;
  }
}

TEST(HealthMonitor, ScorecardIsPerfectOnGeneratedBeatLossTraces) {
  ChaosGenConfig cfg;
  cfg.w_brownout = 0.0;
  cfg.num_faults = 5;
  const ChaosWorld world = make_chaos_world(123, {40, 2}, cfg);
  const HealthMonitorResult run = run_health_monitor(
      world.apps, world.platform, world.catalog, world.trace,
      monitor_options(cfg, 123));
  ASSERT_GT(run.score.truth_down, 0);
  EXPECT_EQ(run.score.detected, run.score.truth_down);
  EXPECT_EQ(run.score.repaired, run.score.truth_down);
  EXPECT_EQ(run.score.recovered, run.score.truth_up);
  // A lost beat becomes conclusive one timeout after the last timely beat:
  // with phase starts on the beat grid that is timeout - 1 beats after the
  // phase start, never sooner, and the recovery chain completes
  // recovery_beats - 1 beats after the heal.
  EXPECT_EQ(run.score.mean_detection_beats, cfg.timeout_beats - 1.0);
  EXPECT_EQ(run.score.max_detection_beats, cfg.timeout_beats - 1.0);
  EXPECT_EQ(run.score.mean_recovery_beats,
            static_cast<double>(cfg.recovery_beats - 1));
}

TEST(HealthMonitor, BrownoutInferencesAreFalsePositivesThatGetUndone) {
  ChaosGenConfig cfg;
  cfg.w_rack = cfg.w_flap = cfg.w_partition = 0.0;  // brownouts only
  cfg.num_faults = 3;
  const ChaosWorld world = make_chaos_world(7, {40, 2}, cfg);
  ASSERT_TRUE(chaos_oracle_trace(world.trace).events.empty());
  const HealthMonitorResult run = run_health_monitor(
      world.apps, world.platform, world.catalog, world.trace,
      monitor_options(cfg, 7));
  // Every brownout is flagged (gray nodes must not go unnoticed)...
  EXPECT_EQ(run.score.detected, run.score.truth_down);
  EXPECT_EQ(run.score.recovered, run.score.truth_up);
  // ... and every conviction is later undone: the stream ends on a
  // recovery and pairs off (one up per down, per server).
  ASSERT_EQ(run.inferred.size(), run.replay.outcomes.size());
  ASSERT_FALSE(run.inferred.empty());
  EXPECT_FALSE(run.inferred.back().down);
  EXPECT_EQ(run.score.truth_down, run.score.truth_up);
  // Echo differential: replaying the *inferred* stream through the plain
  // scenario engine must land exactly where the control loop landed — the
  // monitor adds detection, never repair semantics.
  EventTrace echoed;
  for (const InferredTransition& tr : run.inferred) {
    WorkloadEvent e;
    e.time = tr.time;
    e.kind = tr.down ? EventKind::ServerFailure : EventKind::ServerRecovery;
    e.server = tr.server;
    echoed.events.push_back(e);
  }
  ScenarioOptions ropts;
  ropts.seed = 7;
  ropts.simulate = false;
  const ScenarioResult echo = replay_trace(world.apps, world.platform,
                                           world.catalog, echoed, ropts);
  EXPECT_EQ(run.replay.signature, echo.signature);
  EXPECT_TRUE(run.replay.final_allocation == echo.final_allocation);
}

TEST(HealthMonitor, TrailingExpiryPastTheLastBeatIsReplayed) {
  // Generated traces keep quiet tail beats, so they never reach the final
  // advance_to(horizon).  Hand-build one that does: server 0 goes down at
  // t = 7 and stays down past the horizon.  Its last beat is at 6, so its
  // deadline is 9; the other servers' last beats land at 9, not strictly
  // past it, so only the trailing advance_to(9.5) can infer the failure.
  ChaosGenConfig cfg;
  cfg.beat_interval_s = 1.0;
  cfg.timeout_beats = 3.0;
  ChaosWorld world = make_chaos_world(5, {40, 2}, cfg);
  ChaosTrace trace;
  trace.num_servers = world.platform.num_servers();
  trace.beat_interval_s = 1.0;
  trace.horizon_s = 9.5;
  ChaosFault fault;
  fault.cls = ChaosClass::RackFailure;
  fault.servers = {0};
  fault.start_s = 7.0;
  fault.down_s = 10.0;
  fault.end_s = 17.0;
  trace.faults.push_back(fault);
  world.trace = trace;

  const HealthMonitorOptions opts = monitor_options(cfg, 5);
  const HealthMonitorResult run = run_health_monitor(
      world.apps, world.platform, world.catalog, world.trace, opts);

  ASSERT_FALSE(run.inferred.empty());
  EXPECT_EQ(run.inferred.size(), 1u);
  EXPECT_EQ(run.inferred.back().time, 9.0);
  EXPECT_EQ(run.inferred.back().server, 0);
  EXPECT_TRUE(run.inferred.back().down);
  ASSERT_FALSE(run.replay.outcomes.empty());
  const EventOutcome& last = run.replay.outcomes.back();
  EXPECT_EQ(last.event.kind, EventKind::ServerFailure);
  EXPECT_EQ(last.event.server, 0);
  EXPECT_TRUE(last.repair.success);
  EXPECT_EQ(run.score.detected, 1);
  EXPECT_EQ(run.score.repaired, 1);

  EventTrace expected;
  WorkloadEvent failure;
  failure.time = 9.0;
  failure.kind = EventKind::ServerFailure;
  failure.server = 0;
  expected.events.push_back(failure);
  const ScenarioResult reference = replay_trace(
      world.apps, world.platform, world.catalog, expected, opts.replay);
  EXPECT_EQ(run.replay.signature, reference.signature);
}

} // namespace
} // namespace insp
