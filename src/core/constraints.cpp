#include "core/constraints.hpp"

#include <algorithm>
#include <sstream>

namespace insp {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::Structure: return "structure";
    case ViolationKind::CpuCapacity: return "cpu-capacity(1)";
    case ViolationKind::ProcNic: return "proc-nic(2)";
    case ViolationKind::ServerCard: return "server-card(3)";
    case ViolationKind::ServerProcLink: return "server-proc-link(4)";
    case ViolationKind::ProcProcLink: return "proc-proc-link(5)";
    case ViolationKind::DownloadRouting: return "download-routing";
  }
  return "?";
}

std::string CheckReport::summary() const {
  if (ok()) return "ok";
  std::ostringstream out;
  out << violations.size() << " violation(s):";
  for (const auto& v : violations) {
    out << "\n  [" << to_string(v.kind) << "] " << v.detail;
  }
  return out.str();
}

namespace {

class Checker {
 public:
  Checker(const Problem& problem, const Allocation& alloc)
      : p_(problem), a_(alloc) {}

  CheckReport run() {
    check_structure();
    if (!report_.ok()) return std::move(report_);  // loads need structure
    check_downloads();
    check_cpu_and_nic();
    check_servers_and_links();
    return std::move(report_);
  }

 private:
  void fail(ViolationKind kind, const std::string& detail) {
    report_.violations.push_back({kind, detail});
  }

  void check_structure() {
    const auto& tree = *p_.tree;
    if (static_cast<int>(a_.op_to_proc.size()) != tree.num_operators()) {
      fail(ViolationKind::Structure, "op_to_proc size mismatch");
      return;
    }
    std::vector<int> seen(a_.op_to_proc.size(), 0);
    for (std::size_t u = 0; u < a_.processors.size(); ++u) {
      if (a_.processors[u].ops.empty()) {
        fail(ViolationKind::Structure,
             "processor " + std::to_string(u) + " owns no operators");
      }
      for (int op : a_.processors[u].ops) {
        if (op < 0 || op >= tree.num_operators()) {
          fail(ViolationKind::Structure, "processor owns unknown operator");
          continue;
        }
        if (a_.op_to_proc[static_cast<std::size_t>(op)] !=
            static_cast<int>(u)) {
          fail(ViolationKind::Structure,
               "op " + std::to_string(op) + " map/ops list disagree");
        }
        ++seen[static_cast<std::size_t>(op)];
      }
    }
    for (std::size_t op = 0; op < seen.size(); ++op) {
      if (seen[op] != 1) {
        fail(ViolationKind::Structure,
             "op " + std::to_string(op) + " owned by " +
                 std::to_string(seen[op]) + " processors");
      }
    }
  }

  void check_downloads() {
    const auto needed = needed_types_per_processor(p_, a_);
    const int num_types = p_.tree->catalog().count();
    // last_proc[t]: the last processor that routed type t, which flags a
    // repeat in route order; `routed` collects each processor's distinct
    // routed types and is sorted before the two set differences.
    std::vector<int> last_proc(static_cast<std::size_t>(num_types), -1);
    std::vector<int> routed;
    for (std::size_t u = 0; u < a_.processors.size(); ++u) {
      routed.clear();
      for (const auto& dl : a_.processors[u].downloads) {
        if (dl.object_type < 0 || dl.object_type >= num_types) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " downloads unknown type");
          continue;
        }
        int& last = last_proc[static_cast<std::size_t>(dl.object_type)];
        if (last == static_cast<int>(u)) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " downloads type " +
                   std::to_string(dl.object_type) + " twice");
        } else {
          last = static_cast<int>(u);
          routed.push_back(dl.object_type);
        }
        if (dl.server < 0 || dl.server >= p_.platform->num_servers()) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " downloads from unknown server");
          continue;
        }
        if (!p_.platform->server(dl.server).hosts(dl.object_type)) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " downloads type " +
                   std::to_string(dl.object_type) + " from S" +
                   std::to_string(dl.server) + " which does not host it");
        }
      }
      std::sort(routed.begin(), routed.end());
      const std::vector<int>& need = needed[u];  // sorted ascending
      for (int t : need) {
        if (!std::binary_search(routed.begin(), routed.end(), t)) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " misses a route for type " +
                   std::to_string(t));
        }
      }
      for (int t : routed) {
        if (!std::binary_search(need.begin(), need.end(), t)) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " routes unneeded type " +
                   std::to_string(t));
        }
      }
    }
  }

  void check_cpu_and_nic() {
    const auto loads = compute_processor_loads(p_, a_);
    const auto& cat = *p_.catalog;
    for (std::size_t u = 0; u < a_.processors.size(); ++u) {
      const auto& cfg = a_.processors[u].config;
      if (!cfg.valid()) {
        fail(ViolationKind::Structure,
             "P" + std::to_string(u) + " has no configuration");
        continue;
      }
      if (!fits_within(loads[u].cpu_demand, cat.speed(cfg))) {
        std::ostringstream ss;
        ss << "P" << u << " cpu " << loads[u].cpu_demand << " > "
           << cat.speed(cfg);
        fail(ViolationKind::CpuCapacity, ss.str());
      }
      if (!fits_within(loads[u].nic_total(), cat.bandwidth(cfg))) {
        std::ostringstream ss;
        ss << "P" << u << " nic " << loads[u].nic_total() << " > "
           << cat.bandwidth(cfg) << " (dl " << loads[u].download << " in "
           << loads[u].comm_in << " out " << loads[u].comm_out << ")";
        fail(ViolationKind::ProcNic, ss.str());
      }
    }
  }

  void check_servers_and_links() {
    const auto& plat = *p_.platform;
    const LinkLoads links = compute_link_loads(p_, a_);
    // (3) server cards and (4) server->processor links.
    for (int l = 0; l < plat.num_servers(); ++l) {
      const MBps load = links.server_card[static_cast<std::size_t>(l)];
      if (!fits_within(load, plat.server(l).card_bandwidth)) {
        std::ostringstream ss;
        ss << "S" << l << " card " << load << " > "
           << plat.server(l).card_bandwidth;
        fail(ViolationKind::ServerCard, ss.str());
      }
    }
    for (const auto& [key, load] : links.server_proc) {
      if (!fits_within(load, plat.link_server_proc())) {
        std::ostringstream ss;
        ss << "link S" << key.first << "->P" << key.second << " " << load
           << " > " << plat.link_server_proc();
        fail(ViolationKind::ServerProcLink, ss.str());
      }
    }
    // (5) processor<->processor links, under the multicast rule.
    for (const auto& [key, load] : links.proc_proc) {
      if (!fits_within(load, plat.link_proc_proc())) {
        std::ostringstream ss;
        ss << "link P" << key.first << "<->P" << key.second << " " << load
           << " > " << plat.link_proc_proc();
        fail(ViolationKind::ProcProcLink, ss.str());
      }
    }
  }

  const Problem& p_;
  const Allocation& a_;
  CheckReport report_;
};

} // namespace

CheckReport check_allocation(const Problem& problem, const Allocation& alloc) {
  return Checker(problem, alloc).run();
}

} // namespace insp
