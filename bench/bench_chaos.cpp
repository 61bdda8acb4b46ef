// Self-healing control-loop study (docs/DESIGN.md §12): for each chaos
// class — correlated rack failure, flapping server, slow-node brownout,
// network partition — a seeded ChaosTrace is rendered to its heartbeat
// stream and driven through the failure detector + DynamicAllocator repair
// loop (health/health_monitor).  No oracle: every repair the loop performs
// was *inferred* from missed or delayed beats.  Reported per class:
//
//   detection latency   beats from ground-truth transition to inference
//   repair latency      wall ms per inferred event (median)
//   recovery periods    beats from ground-truth heal to trusted-again
//
// together with the detection / repair / sim-sustained rates, emitted as
// machine-readable BENCH_chaos.json.  --gate enforces the acceptance
// thresholds (>= 95% detected, repaired, sustained); --smoke shrinks the
// sweep to the canonical pinned row per class (chaos_world.hpp).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/chaos_world.hpp"
#include "health/health_monitor.hpp"

using namespace insp;
using namespace insp::benchx;

namespace {

struct ClassResult {
  ChaosClass cls = ChaosClass::RackFailure;
  ChaosWorldScale scale;
  int faults = 0;
  ChaosScore score;
  int events = 0;
  int simulated = 0;
  int sustained = 0;
  double median_repair_ms = 0.0;
  Dollars final_cost = 0.0;
  std::uint64_t signature = 0;

  double detection_rate() const {
    return score.truth_down > 0
               ? static_cast<double>(score.detected) / score.truth_down
               : 1.0;
  }
  double repaired_rate() const {
    return score.truth_down > 0
               ? static_cast<double>(score.repaired) / score.truth_down
               : 1.0;
  }
  double sustained_rate() const {
    return simulated > 0 ? static_cast<double>(sustained) / simulated : 1.0;
  }
};

void write_json(const std::string& path, std::uint64_t seed,
                const std::vector<ClassResult>& results) {
  JsonArtifact a{"chaos", 1, seed};
  for (const ClassResult& r : results) {
    a.results.push_back(
        JsonRow()
            .add("chaos_class", to_string(r.cls))
            .add("num_operators", r.scale.n)
            .add("initial_apps", r.scale.apps)
            .add("faults", r.faults)
            .add("truth_down", r.score.truth_down)
            .add("detected", r.score.detected)
            .add("repaired", r.score.repaired)
            .add("recovered", r.score.recovered)
            .add("detection_rate", r.detection_rate(), 4)
            .add("mean_detection_beats", r.score.mean_detection_beats, 4)
            .add("max_detection_beats", r.score.max_detection_beats, 4)
            .add("median_repair_ms", r.median_repair_ms, 4)
            .add("mean_recovery_beats", r.score.mean_recovery_beats, 4)
            .add("max_recovery_beats", r.score.max_recovery_beats, 4)
            .add("events_inferred", r.events)
            .add("events_simulated", r.simulated)
            .add("events_sustained", r.sustained)
            .add("final_cost", r.final_cost, 2)
            .add("signature", hex16(r.signature)));
  }
  emit_json(a, path);
}

} // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv, {"json", "smoke", "gate", "simulate"},
                  /*default_reps=*/1, /*accepts_heuristics=*/false);
  const CliArgs& args = flags.args;
  const std::string json_path = args.get("json", "BENCH_chaos.json");
  const bool smoke = args.get_bool("smoke", false);
  const bool gate = args.get_bool("gate", false);
  const bool simulate = args.get_bool("simulate", true);

  std::vector<ChaosWorldScale> scales;
  int faults;
  if (smoke) {
    scales.push_back(chaos_smoke_scale());
    faults = chaos_smoke_config(ChaosClass::RackFailure).num_faults;
  } else {
    scales.push_back({100, 2});
    scales.push_back({200, 4});
    faults = 6;
  }

  std::printf("Heartbeat detection + self-healing repair under chaos\n"
              "=====================================================\n\n");

  bool gate_ok = true;
  std::vector<ClassResult> results;
  for (const ChaosWorldScale& scale : scales) {
    for (ChaosClass cls : all_chaos_classes()) {
      ChaosGenConfig cfg = chaos_smoke_config(cls);
      cfg.num_faults = faults;
      ChaosWorld world = make_chaos_world(flags.seed, scale, cfg);

      HealthMonitorOptions opts;
      opts.detector.beat_interval_s = cfg.beat_interval_s;
      opts.detector.timeout_beats = cfg.timeout_beats;
      opts.detector.recovery_beats = cfg.recovery_beats;
      opts.replay.seed = flags.seed;
      opts.replay.simulate = simulate;
      opts.replay.num_threads = flags.threads;
      const HealthMonitorResult run = run_health_monitor(
          world.apps, world.platform, world.catalog, world.trace, opts);

      ClassResult r;
      r.cls = cls;
      r.scale = scale;
      r.faults = static_cast<int>(world.trace.faults.size());
      r.score = run.score;
      const ScenarioSummary& summary = run.replay.summary;
      r.events = summary.events;
      r.simulated = summary.simulated;
      r.sustained = summary.sustained;
      r.median_repair_ms = summary.median_repair_seconds * 1e3;
      r.final_cost = summary.final_cost;
      r.signature = run.replay.signature;
      results.push_back(r);

      std::printf(
          "N=%-4d apps=%d %-13s  detect %2d/%2d (mean %4.2f beats)   repair "
          "%6.3f ms/event   recover mean %4.2f beats\n",
          scale.n, scale.apps, to_string(cls), r.score.detected,
          r.score.truth_down, r.score.mean_detection_beats,
          r.median_repair_ms, r.score.mean_recovery_beats);
      std::printf(
          "      inferred %d events   repaired %d/%d   sim sustained %d/%d   "
          "cost $%.0f   signature %s\n\n",
          r.events, r.score.repaired, r.score.truth_down, r.sustained,
          r.simulated, r.final_cost, hex16(r.signature).c_str());

      if (r.detection_rate() < 0.95 || r.repaired_rate() < 0.95 ||
          r.sustained_rate() < 0.95) {
        gate_ok = false;
        std::printf("      GATE MISS: detection %.2f repaired %.2f "
                    "sustained %.2f (need >= 0.95)\n\n",
                    r.detection_rate(), r.repaired_rate(),
                    r.sustained_rate());
      }
    }
  }

  write_json(json_path, flags.seed, results);
  if (gate && !gate_ok) {
    std::fprintf(stderr, "chaos gate failed: some class fell below the 95%% "
                         "detect/repair/sustain thresholds\n");
    return 1;
  }
  return 0;
}
