// Golden-signature regression: the seed-42 smoke replay signatures of
// bench_dynamic and bench_service are pinned in
// tests/golden/replay_signatures.txt, so any change that silently shifts a
// repair trajectory — world generation, trace generation, repair policy,
// batching/coalescing rules, signature mixing — fails ctest instead of
// only being noticeable in bench output.  When a drift is *intentional*
// (a deliberate policy change), re-run the bench smoke configs and update
// the golden file in the same commit, saying why.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench_support/dynamic_world.hpp"
#include "dynamic/dynamic_test_helpers.hpp"
#include "dynamic/scenario_engine.hpp"
#include "harness/chaos_world.hpp"
#include "harness/reporting.hpp"
#include "health/health_monitor.hpp"
#include "service/service_replay.hpp"

namespace insp {
namespace {

using benchx::DynamicWorld;
using benchx::make_dynamic_world;

std::map<std::string, std::uint64_t> load_golden() {
  const std::string path =
      std::string(INSP_TESTS_DIR) + "/golden/replay_signatures.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::map<std::string, std::uint64_t> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, hex;
    ls >> name >> hex;
    golden[name] = std::stoull(hex, nullptr, 16);
  }
  return golden;
}

TEST(ReplaySignatureGolden, BenchDynamicSmokeSignatureIsPinned) {
  const auto golden = load_golden();
  ASSERT_TRUE(golden.count("bench_dynamic_smoke"));
  // Exactly bench_dynamic --smoke --seed 42: scale {40, 2, 24}, default
  // repair options.  The signature covers only the repair trajectory and
  // the final allocation, so the post-hoc simulation pass is skipped.
  DynamicWorld world = make_dynamic_world(42, {40, 2, 24});
  ScenarioOptions opts;
  opts.seed = 42;
  opts.simulate = false;
  const ScenarioResult result = replay_trace(
      world.apps, world.platform, world.catalog, world.trace, opts);
  EXPECT_EQ(hex16(result.signature),
            hex16(golden.at("bench_dynamic_smoke")));
  // Each event reports its consolidation sweep's tried and failed merges
  // outside the signature; the merges that succeeded are among the
  // processors it retired.
  int tried = 0;
  for (const EventOutcome& out : result.outcomes) {
    const RepairReport& rep = out.repair;
    EXPECT_GE(rep.merges_failed, 0);
    EXPECT_LE(rep.merges_failed, rep.merges_tried);
    if (!rep.used_fallback) {
      EXPECT_GE(rep.procs_retired, rep.merges_tried - rep.merges_failed);
    }
    tried += rep.merges_tried;
  }
  EXPECT_GT(tried, 0);
}

TEST(ReplaySignatureGolden, BenchDynamicSmokeFallbackKeepsItsReason) {
  const auto golden = load_golden();
  ASSERT_TRUE(golden.count("bench_dynamic_smoke"));
  // The same replay as above.  Its arrivals are seated in place (the
  // grouping step of paper §4.1 seats the one that no processor takes
  // alone), so no event falls back, no event records a fallback reason, and
  // recording one leaves the trajectory unchanged.
  DynamicWorld world = make_dynamic_world(42, {40, 2, 24});
  ScenarioOptions opts;
  opts.seed = 42;
  opts.simulate = false;
  const ScenarioResult smoke = replay_trace(
      world.apps, world.platform, world.catalog, world.trace, opts);
  EXPECT_EQ(hex16(smoke.signature), hex16(golden.at("bench_dynamic_smoke")));
  for (const EventOutcome& out : smoke.outcomes) {
    EXPECT_FALSE(out.repair.used_fallback) << out.repair.fallback_reason;
    EXPECT_TRUE(out.repair.fallback_reason.empty());
  }

  // A world that still needs the fallback.  One application, the chain
  // root <- m1 <- m2 <- leaf, work 30 each; the edges into the root and out
  // of the leaf carry 120 MB/s at rho 1, the middle one 40.  At rho 0.5 it
  // fits one 100 MegaOps/s processor.  Doubling rho overloads that CPU, and
  // no configuration is faster, so re-purchase cannot repair it.  The
  // scratch re-allocation splits the chain at its middle edge and succeeds,
  // which clears failure_reason: the reason it fired survives in
  // fallback_reason.
  const dyntest::HandWorld w;
  EventTrace trace;
  WorkloadEvent doubling;
  doubling.kind = EventKind::RhoChange;
  doubling.app_id = 0;
  doubling.rho = 1.0;
  trace.events.push_back(doubling);
  const ScenarioResult result = replay_trace(
      {{w.tree({kNoNode, 0, 1, 2}, {30.0, 30.0, 30.0, 30.0},
               {1.0, 120.0, 40.0, 120.0}),
        0.5}},
      w.platform, w.catalog, trace, opts);
  int fallbacks = 0;
  for (const EventOutcome& out : result.outcomes) {
    if (!out.repair.used_fallback) {
      EXPECT_TRUE(out.repair.fallback_reason.empty());
      continue;
    }
    ++fallbacks;
    EXPECT_TRUE(out.repair.success);
    EXPECT_TRUE(out.repair.failure_reason.empty());
    EXPECT_EQ(out.repair.fallback_reason.rfind("repair: processor", 0), 0u)
        << out.repair.fallback_reason;
    EXPECT_NE(out.repair.fallback_reason.find("exceeds every configuration"),
              std::string::npos)
        << out.repair.fallback_reason;
  }
  EXPECT_GE(fallbacks, 1);
}

TEST(ReplaySignatureGolden, BenchChaosSmokeSignaturesArePinned) {
  const auto golden = load_golden();
  // Exactly bench_chaos --smoke --seed 42, one row per chaos class.  The
  // signature covers the detector-inferred repair trajectory and the final
  // allocation only, so the post-hoc simulation pass is skipped.
  for (ChaosClass cls : all_chaos_classes()) {
    const std::string key =
        std::string("bench_chaos_smoke_") + to_string(cls);
    ASSERT_TRUE(golden.count(key)) << key;
    const benchx::ChaosWorld world = benchx::make_chaos_world(
        42, benchx::chaos_smoke_scale(), benchx::chaos_smoke_config(cls));
    HealthMonitorOptions opts;
    opts.replay.seed = 42;
    opts.replay.simulate = false;
    const HealthMonitorResult run = run_health_monitor(
        world.apps, world.platform, world.catalog, world.trace, opts);
    EXPECT_EQ(hex16(run.replay.signature), hex16(golden.at(key)))
        << to_string(cls);
  }
}

TEST(ReplaySignatureGolden, BenchServiceSmokeSignaturesArePinned) {
  const auto golden = load_golden();
  // Exactly bench_service --smoke --seed 42: 2 shards, 20 operators and 24
  // events each, default service options (30 s epoch window).
  ServiceOptions opts;
  opts.seed = 42;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string key =
        "bench_service_smoke_shard" + std::to_string(shard);
    ASSERT_TRUE(golden.count(key)) << key;
    DynamicWorld world = make_dynamic_world(
        42 + 7919ull * static_cast<std::uint64_t>(shard), {20, 2, 24});
    const ShardSpec spec{world.apps, world.platform, world.catalog,
                         world.trace};
    const ShardReplayResult ref =
        replay_shard_sequential(spec, shard, opts);
    EXPECT_TRUE(ref.initialized);
    EXPECT_EQ(hex16(ref.signature), hex16(golden.at(key)))
        << "shard " << shard;
  }
}

} // namespace
} // namespace insp
