// The capacity verdict of a placement move, restated for the placement
// fuzzers from two from-scratch load recomputes — the loads before the move
// and the loads after it — so it shares no verdict code with PlacementState.
// The rule (docs/DESIGN.md §5), judged on every processor and link of the
// whole state: a capacity whose load fits after the move passes; one that
// fit before must fit after; one already violated before passes only if its
// load did not grow.  A capacity the move leaves untouched has the same load
// on both sides and always passes.
//
// The oracle's sums and the state's incremental sums may differ in the last
// bits, so a comparison whose load sits within 1e-9 * (1 + capacity) of its
// decision boundary is reported as kTooClose and the caller skips the step.
#pragma once

#include <cmath>
#include <map>
#include <utility>

#include "core/placement_state.hpp"
#include "platform/catalog.hpp"
#include "util/units.hpp"

namespace insp::verdict_oracle {

enum class Verdict { kAccept, kReject, kTooClose };

/// How often each branch of the rule decided a step (the fuzzers assert the
/// walk reached every branch).
struct Coverage {
  long checked = 0;    ///< steps whose verdict was compared
  long too_close = 0;  ///< steps skipped as kTooClose
  long drains = 0;     ///< accepted while a violated capacity shrank but
                       ///< stayed over (a pure-fit rule would refuse)
  long growths = 0;    ///< refused only because a violated capacity grew
                       ///< (a rule ignoring the prior load would accept)
};

namespace detail {

/// Which branch of the rule decided one capacity.
enum class Branch { kFits, kNewViolation, kNotGrown, kGrew, kTooClose };

inline double bound(double capacity) {
  return capacity + kCapacityEpsilon * (1.0 + (capacity > 0 ? capacity : 0.0));
}

inline bool near_boundary(double load, double capacity) {
  return std::abs(load - bound(capacity)) <= 1e-9 * (1.0 + std::abs(capacity));
}

inline Branch judge(double now, double before, double capacity) {
  if (near_boundary(now, capacity)) return Branch::kTooClose;
  if (now <= bound(capacity)) return Branch::kFits;
  if (near_boundary(before, capacity)) return Branch::kTooClose;
  if (before <= bound(capacity)) return Branch::kNewViolation;
  if (near_boundary(now, before)) return Branch::kTooClose;
  return now <= bound(before) ? Branch::kNotGrown : Branch::kGrew;
}

} // namespace detail

/// The whole-state verdict from two load recomputes over the same live
/// processors.  `Oracle` is a fuzzer's recompute result: per-pid
/// `cpu_demand` / `download` / `comm` maps, a `link_traffic` map keyed by
/// (min pid, max pid), and the `live` pid list.
template <typename Oracle>
Verdict whole_state_verdict(const Oracle& before, const Oracle& after,
                            const PlacementState& state,
                            const PriceCatalog& prices, MBps link_capacity,
                            Coverage& coverage) {
  bool too_close = false, new_violation = false, grew = false, drained = false;
  const auto fold = [&](double now, double was, double capacity) {
    switch (detail::judge(now, was, capacity)) {
      case detail::Branch::kTooClose: too_close = true; break;
      case detail::Branch::kNewViolation: new_violation = true; break;
      case detail::Branch::kGrew: grew = true; break;
      case detail::Branch::kNotGrown: drained |= now != was; break;
      case detail::Branch::kFits: break;
    }
  };
  for (int pid : before.live) {
    const ProcessorConfig& cfg = state.config(pid);
    fold(after.cpu_demand.at(pid), before.cpu_demand.at(pid),
         prices.speed(cfg));
    fold(after.download.at(pid) + after.comm.at(pid),
         before.download.at(pid) + before.comm.at(pid), prices.bandwidth(cfg));
  }
  std::map<std::pair<int, int>, std::pair<double, double>> links;  // now, was
  for (const auto& [link, used] : after.link_traffic) links[link].first = used;
  for (const auto& [link, used] : before.link_traffic) {
    links[link].second = used;
  }
  for (const auto& [link, loads] : links) {
    (void)link;
    fold(loads.first, loads.second, link_capacity);
  }
  if (too_close) {
    ++coverage.too_close;
    return Verdict::kTooClose;
  }
  ++coverage.checked;
  if (new_violation || grew) {
    coverage.growths += new_violation ? 0 : 1;
    return Verdict::kReject;
  }
  coverage.drains += drained ? 1 : 0;
  return Verdict::kAccept;
}

} // namespace insp::verdict_oracle
