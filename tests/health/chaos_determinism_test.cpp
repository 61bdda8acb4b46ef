// Determinism of the chaos control loop (docs/DESIGN.md §12): the health
// monitor's replay signature, summary, and final allocation must be
// bit-identical for every validation thread count — the same contract the
// sweep engine, the scenario engine, and the allocation service uphold.  Runs
// under the plain, ASan/UBSan, and TSan CI jobs.
#include <gtest/gtest.h>

#include <vector>

#include "harness/chaos_world.hpp"
#include "health/health_monitor.hpp"

namespace insp {
namespace {

using benchx::ChaosWorld;
using benchx::make_chaos_world;

ChaosWorld mixed_world() {
  ChaosGenConfig cfg;  // all four classes in one trace
  cfg.num_faults = 5;
  return make_chaos_world(42, {40, 2}, cfg);
}

HealthMonitorResult run(const ChaosWorld& world, int num_threads) {
  HealthMonitorOptions opts;
  opts.replay.seed = 42;
  opts.replay.simulate = true;  // the validation pass is what threads touch
  opts.replay.num_threads = num_threads;
  return run_health_monitor(world.apps, world.platform, world.catalog,
                            world.trace, opts);
}

void expect_identical(const HealthMonitorResult& a,
                      const HealthMonitorResult& b, const char* label) {
  EXPECT_EQ(a.replay.signature, b.replay.signature) << label;
  EXPECT_TRUE(a.replay.final_allocation == b.replay.final_allocation)
      << label;
  EXPECT_EQ(a.replay.summary.events, b.replay.summary.events) << label;
  EXPECT_EQ(a.replay.summary.failures, b.replay.summary.failures) << label;
  EXPECT_EQ(a.replay.summary.simulated, b.replay.summary.simulated) << label;
  EXPECT_EQ(a.replay.summary.sustained, b.replay.summary.sustained) << label;
  ASSERT_EQ(a.inferred.size(), b.inferred.size()) << label;
  for (std::size_t i = 0; i < a.inferred.size(); ++i) {
    EXPECT_EQ(a.inferred[i].time, b.inferred[i].time) << label;
    EXPECT_EQ(a.inferred[i].server, b.inferred[i].server) << label;
    EXPECT_EQ(a.inferred[i].down, b.inferred[i].down) << label;
  }
}

TEST(ChaosDeterminism, SignatureIsIdenticalAcrossThreadCounts) {
  const ChaosWorld world = mixed_world();
  const HealthMonitorResult serial = run(world, 1);
  ASSERT_GT(serial.replay.summary.events, 0);
  ASSERT_GT(serial.replay.summary.simulated, 0);
  for (int threads : {2, 8}) {
    expect_identical(serial, run(world, threads),
                     ("threads=" + std::to_string(threads)).c_str());
  }
}

} // namespace
} // namespace insp
