#include "sim/sim_platform_view.hpp"

#include <algorithm>
#include <cassert>

namespace insp {

SimPlatformView SimPlatformView::uniform(const Platform& platform) {
  SimPlatformView view;
  view.default_link_pp_ = platform.link_proc_proc();
  view.server_up_.assign(static_cast<std::size_t>(platform.num_servers()), 1);
  return view;
}

SimPlatformView SimPlatformView::degraded(const Platform& platform,
                                          const std::vector<bool>& server_up) {
  SimPlatformView view = uniform(platform);
  for (std::size_t s = 0; s < server_up.size(); ++s) {
    if (!server_up[s]) view.set_server_up(static_cast<int>(s), false);
  }
  return view;
}

void SimPlatformView::set_server_up(int server, bool up) {
  assert(server >= 0);
  const auto s = static_cast<std::size_t>(server);
  if (s >= server_up_.size()) server_up_.resize(s + 1, 1);
  server_up_[s] = up ? 1 : 0;
}

void SimPlatformView::set_link_bandwidth(int proc_u, int proc_v, MBps bw) {
  assert(proc_u >= 0 && proc_v >= 0 && proc_u != proc_v);
  const std::pair<int, int> key{std::min(proc_u, proc_v),
                                std::max(proc_u, proc_v)};
  const auto it = std::lower_bound(
      link_overrides_.begin(), link_overrides_.end(), key,
      [](const auto& entry, const auto& k) { return entry.first < k; });
  if (it != link_overrides_.end() && it->first == key) {
    it->second = bw;
  } else {
    link_overrides_.insert(it, {key, bw});
  }
}

MBps SimPlatformView::link_bandwidth(int proc_u, int proc_v) const {
  const std::pair<int, int> key{std::min(proc_u, proc_v),
                                std::max(proc_u, proc_v)};
  const auto it = std::lower_bound(
      link_overrides_.begin(), link_overrides_.end(), key,
      [](const auto& entry, const auto& k) { return entry.first < k; });
  if (it != link_overrides_.end() && it->first == key) return it->second;
  return default_link_pp_;
}

} // namespace insp
