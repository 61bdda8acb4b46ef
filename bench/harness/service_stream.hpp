// The request order AllocationService::submit accepts: event times
// non-decreasing across the whole service.  Every caller that drives a
// multi-shard deployment submits its shards' traces merged by (event time,
// shard), as perfbench's open-loop producer does.
#pragma once

#include <algorithm>
#include <vector>

#include "service/allocation_service.hpp"

namespace insp::benchx {

/// One request of a merged stream: a shard's trace event, by reference.
struct RoutedEvent {
  int shard = 0;
  const WorkloadEvent* event = nullptr;
};

/// Every shard's trace merged by (event time, shard); equal keys keep
/// trace order.  The pointers are into `specs`, which must outlive them.
inline std::vector<RoutedEvent> merged_stream(
    const std::vector<ShardSpec>& specs) {
  std::vector<RoutedEvent> merged;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (const WorkloadEvent& event : specs[s].trace.events) {
      merged.push_back({static_cast<int>(s), &event});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const RoutedEvent& a, const RoutedEvent& b) {
                     if (a.event->time != b.event->time) {
                       return a.event->time < b.event->time;
                     }
                     return a.shard < b.shard;
                   });
  return merged;
}

} // namespace insp::benchx
