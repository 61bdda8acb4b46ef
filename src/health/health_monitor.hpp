// Self-healing control loop (docs/DESIGN.md §12): heartbeat stream in,
// repaired allocations out.  The monitor replays the beat stream of a
// ChaosTrace through the FailureDetector, renders every *inferred*
// transition — never the ground truth — as a ServerFailure /
// ServerRecovery event, and hands that event trace to replay_trace.  The
// monitor *is* the scenario engine fed by the detector: the detector never
// reads the allocator, so the inferred stream is a pure function of the
// chaos trace, and repair, validation, summary and signature are
// replay_trace's own (sequential repair, parallel post-validation into
// pre-allocated slots, bit-identical for every thread count).
//
// That is the differential-test contract: for a beat-loss-only chaos trace
// the inferred transitions are 1:1 with the ground-truth transitions and
// arrive in the same order, so the monitor's signature must equal
// replay_trace's signature on chaos_oracle_trace() — detection latency
// shifts *when* repairs happen, never *what* they do.
//
// The ground truth is used for *scoring* (detection / recovery latency,
// ChaosScore), never for repair or validation.
#pragma once

#include <vector>

#include "dynamic/chaos_generator.hpp"
#include "dynamic/scenario_engine.hpp"
#include "health/failure_detector.hpp"

namespace insp {

struct HealthMonitorOptions {
  FailureDetectorConfig detector;
  /// How the inferred event trace is replayed (repair, seed, simulation,
  /// validation threads).
  ScenarioOptions replay;
};

/// Chaos scorecard: how fast the loop noticed, repaired and recovered.
/// All latencies are in beats (multiples of the beat interval).
struct ChaosScore {
  int truth_down = 0;       ///< ground-truth down transitions
  int truth_up = 0;         ///< ground-truth up transitions
  int detected = 0;         ///< down transitions matched by an inference
  int recovered = 0;        ///< up transitions matched by an inference
  int repaired = 0;         ///< matched down inferences whose repair succeeded
  double mean_detection_beats = 0.0;  ///< inferred down lag behind truth
  double max_detection_beats = 0.0;
  double mean_recovery_beats = 0.0;   ///< inferred up lag behind truth heal
  double max_recovery_beats = 0.0;
};

struct HealthMonitorResult {
  /// Every inferred transition, in emission order.
  std::vector<InferredTransition> inferred;
  /// replay_trace over the inferred transitions: replay.outcomes[i] is the
  /// event synthesized from inferred[i].
  ScenarioResult replay;
  ChaosScore score;
};

HealthMonitorResult run_health_monitor(
    const std::vector<ApplicationSpec>& initial_apps, const Platform& platform,
    const PriceCatalog& catalog, const ChaosTrace& trace,
    const HealthMonitorOptions& options = {});

} // namespace insp
