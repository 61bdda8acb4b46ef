// The platform as the event simulator should see it.  A Problem's Platform
// describes the *healthy* world with one uniform processor<->processor link
// bandwidth; the dynamic layer (src/dynamic/) degrades that world — servers
// fail, and operators can find themselves on opposite sides of a slow pair
// link.  SimPlatformView is the self-contained snapshot of those degradations
// that travels with a simulation request:
//
//   - server_up flags: a download route that points at a down server delivers
//     nothing, so the operators needing that object type starve (and the
//     route's rate stops occupying the processor card);
//   - per-pair link overrides: heterogeneous bandwidth for specific
//     processor pairs on top of the platform's uniform default.
//
// The view is plain data (no pointers into Platform), so scenario snapshots
// can be simulated in worker threads long after the live world moved on.
#pragma once

#include <utility>
#include <vector>

#include "platform/platform.hpp"
#include "util/units.hpp"

namespace insp {

class SimPlatformView {
 public:
  SimPlatformView() = default;

  /// Healthy view of a platform: every server up, every processor pair at
  /// the uniform link_proc_proc() bandwidth.
  static SimPlatformView uniform(const Platform& platform);

  /// Degraded view: uniform() with the servers whose `server_up` flag is
  /// false marked down.  Flags are indexed by server id; ids beyond the
  /// vector are up.  This covers both true failures and partitions ("links
  /// down, servers up"): an unreachable server delivers nothing to any
  /// processor, which is all the simulator can observe about it.  Shared by
  /// the scenario engine and the health monitor so oracle-driven and
  /// detector-driven replays validate against identical views.
  static SimPlatformView degraded(const Platform& platform,
                                  const std::vector<bool>& server_up);

  MBps default_link_bandwidth() const { return default_link_pp_; }

  /// Marks a server up/down.  Grows the flag set on demand, so a view built
  /// with uniform() accepts any valid server id.
  void set_server_up(int server, bool up);
  /// Servers never marked down are up (an empty view fails nothing).
  bool server_is_up(int server) const {
    const auto s = static_cast<std::size_t>(server);
    return s >= server_up_.size() || server_up_[s] != 0;
  }

  /// Overrides the bandwidth of the unordered processor pair {u, v}.
  void set_link_bandwidth(int proc_u, int proc_v, MBps bw);
  /// Pair bandwidth: the override if one was set, else the uniform default.
  MBps link_bandwidth(int proc_u, int proc_v) const;

 private:
  MBps default_link_pp_ = 0.0;
  std::vector<char> server_up_;  ///< empty slot/short vector == up
  /// Sorted by pair key (min, max); binary-searched.  Looked up once per
  /// crossing edge at simulation setup, never in the period loop.
  std::vector<std::pair<std::pair<int, int>, MBps>> link_overrides_;
};

} // namespace insp
