#include "health/health_monitor.hpp"

#include <algorithm>

namespace insp {

HealthMonitorResult run_health_monitor(
    const std::vector<ApplicationSpec>& initial_apps, const Platform& platform,
    const PriceCatalog& catalog, const ChaosTrace& trace,
    const HealthMonitorOptions& options) {
  HealthMonitorResult result;
  FailureDetector detector(options.detector, trace.num_servers, 0.0);
  const auto record = [&](const std::vector<InferredTransition>& batch) {
    result.inferred.insert(result.inferred.end(), batch.begin(), batch.end());
  };
  for (const BeatObservation& b : chaos_beats(trace)) {
    record(detector.beat(b.time, b.server));
  }
  // Trailing expiries past the last beat (none for generated traces — the
  // horizon floor guarantees quiet tail beats — but the loop must not rely
  // on generator goodwill).
  record(detector.advance_to(trace.horizon_s));

  EventTrace inferred_trace;
  inferred_trace.events.reserve(result.inferred.size());
  for (const InferredTransition& tr : result.inferred) {
    WorkloadEvent event;
    event.time = tr.time;
    event.kind =
        tr.down ? EventKind::ServerFailure : EventKind::ServerRecovery;
    event.server = tr.server;
    inferred_trace.events.push_back(event);
  }
  result.replay = replay_trace(initial_apps, platform, catalog,
                               inferred_trace, options.replay);

  // Scorecard: greedy 1:1 matching of ground-truth transitions to inferred
  // ones (same server, same direction, inferred at or after the truth
  // instant).  The generator's spacing floors make greedy matching exact:
  // each transition's inference lands before the server's next truth
  // transition.
  const double interval = trace.beat_interval_s;
  ChaosScore& score = result.score;
  std::vector<char> used(result.inferred.size(), 0);
  double det_sum = 0.0;
  double rec_sum = 0.0;
  for (const TruthTransition& t : chaos_transitions(trace)) {
    (t.down ? score.truth_down : score.truth_up) += 1;
    for (std::size_t i = 0; i < result.inferred.size(); ++i) {
      const InferredTransition& tr = result.inferred[i];
      if (used[i] || tr.server != t.server || tr.down != t.down ||
          tr.time < t.time) {
        continue;
      }
      used[i] = 1;
      const double lag_beats = (tr.time - t.time) / interval;
      if (t.down) {
        ++score.detected;
        det_sum += lag_beats;
        score.max_detection_beats =
            std::max(score.max_detection_beats, lag_beats);
        if (result.replay.outcomes[i].repair.success) ++score.repaired;
      } else {
        ++score.recovered;
        rec_sum += lag_beats;
        score.max_recovery_beats =
            std::max(score.max_recovery_beats, lag_beats);
      }
      break;
    }
  }
  if (score.detected > 0) score.mean_detection_beats = det_sum / score.detected;
  if (score.recovered > 0) score.mean_recovery_beats = rec_sum / score.recovered;
  return result;
}

} // namespace insp
