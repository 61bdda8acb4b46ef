#include "service/batch_planner.hpp"

#include <cmath>
#include <limits>

namespace insp {

std::int64_t batch_epoch(double time_s, double window_s) {
  if (window_s <= 0.0) return 0;  // callers split per event instead
  // Casting a double outside the int64 range (or a NaN) is undefined, so
  // clamp to the limits; -2^63 and 2^63 are exact doubles.
  const double q = std::floor(time_s / window_s);
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (std::isnan(q)) return 0;
  if (q >= kLimit) return std::numeric_limits<std::int64_t>::max();
  if (q <= -kLimit) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(q);
}

bool is_rate_event(EventKind kind) {
  return kind == EventKind::RhoChange || kind == EventKind::ObjectRateChange;
}

bool is_server_event(EventKind kind) {
  return kind == EventKind::ServerFailure || kind == EventKind::ServerRecovery;
}

namespace {

/// Coalescing key: two rate events collide iff they update the same knob.
bool same_knob(const WorkloadEvent& a, const WorkloadEvent& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == EventKind::RhoChange) return a.app_id == b.app_id;
  return a.object_type == b.object_type;  // ObjectRateChange
}

} // namespace

CoalescedBatch coalesce_batch(const std::vector<WorkloadEvent>& batch) {
  CoalescedBatch out;
  out.applied.reserve(batch.size());
  std::size_t i = 0;
  while (i < batch.size()) {
    if (!is_rate_event(batch[i].kind)) {  // barrier
      // A consecutive run of identical server events collapses to one
      // application (idempotent re-inference by the failure detector);
      // the survivor keeps the last occurrence's position, matching the
      // rate events' last-write-wins convention.
      if (is_server_event(batch[i].kind)) {
        std::size_t j = i + 1;
        while (j < batch.size() && batch[j].kind == batch[i].kind &&
               batch[j].server == batch[i].server) {
          ++j;
        }
        out.coalesced += static_cast<int>(j - i - 1);
        out.applied.push_back(batch[j - 1]);
        i = j;
      } else {  // structural barrier: applied verbatim
        out.applied.push_back(batch[i]);
        ++i;
      }
      continue;
    }
    // Maximal run of rate events [i, j): keep the last update per knob.
    std::size_t j = i;
    while (j < batch.size() && is_rate_event(batch[j].kind)) ++j;
    for (std::size_t k = i; k < j; ++k) {
      bool overwritten = false;
      for (std::size_t l = k + 1; l < j && !overwritten; ++l) {
        overwritten = same_knob(batch[k], batch[l]);
      }
      if (overwritten) {
        ++out.coalesced;
      } else {
        out.applied.push_back(batch[k]);
      }
    }
    i = j;
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> epoch_runs(
    const std::vector<WorkloadEvent>& events, double window_s) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  if (events.empty()) return runs;
  if (window_s <= 0.0) {  // batching disabled: one event per batch
    for (std::size_t i = 0; i < events.size(); ++i) runs.emplace_back(i, i + 1);
    return runs;
  }
  std::size_t first = 0;
  std::int64_t epoch = batch_epoch(events[0].time, window_s);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const std::int64_t e = batch_epoch(events[i].time, window_s);
    if (e != epoch) {
      runs.emplace_back(first, i);
      first = i;
      epoch = e;
    }
  }
  runs.emplace_back(first, events.size());
  return runs;
}

} // namespace insp
