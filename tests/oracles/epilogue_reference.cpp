#include "oracles/epilogue_reference.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "net/bandwidth_ledger.hpp"

namespace insp {

std::vector<std::vector<int>> needed_types_per_processor_reference(
    const Problem& problem, const Allocation& alloc) {
  const OperatorTree& tree = *problem.tree;
  std::vector<std::set<int>> sets(alloc.processors.size());
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    for (int op : alloc.processors[u].ops) {
      for (int t : tree.object_types_of(op)) {
        sets[u].insert(t);
      }
    }
  }
  std::vector<std::vector<int>> out(alloc.processors.size());
  for (std::size_t u = 0; u < sets.size(); ++u) {
    out[u].assign(sets[u].begin(), sets[u].end());
  }
  return out;
}

LinkLoadsReference compute_link_loads_reference(const Problem& problem,
                                                const Allocation& alloc) {
  const OperatorTree& tree = *problem.tree;
  const int num_servers = problem.platform->num_servers();
  const int num_types = tree.catalog().count();
  LinkLoadsReference loads;
  loads.server_card.assign(static_cast<std::size_t>(num_servers), 0.0);
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    for (const auto& dl : alloc.processors[u].downloads) {
      if (dl.server < 0 || dl.server >= num_servers) continue;
      if (dl.object_type < 0 || dl.object_type >= num_types) continue;
      const MBps r = tree.catalog().type(dl.object_type).rate();
      loads.server_card[static_cast<std::size_t>(dl.server)] += r;
      loads.server_proc[{dl.server, static_cast<int>(u)}] += r;
    }
  }
  const auto proc_of = [&](int op) {
    return alloc.op_to_proc[static_cast<std::size_t>(op)];
  };
  for (const auto& n : tree.operators()) {
    const int uc = proc_of(n.id);
    if (uc == kNoNode) continue;
    tree.visit_shipments(n.id, uc, proc_of, [&](int up, MegaBytes mx) {
      loads.proc_proc[{std::min(uc, up), std::max(uc, up)}] +=
          problem.rho * mx;
    });
  }
  return loads;
}

namespace {

class ReferenceChecker {
 public:
  ReferenceChecker(const Problem& problem, const Allocation& alloc)
      : p_(problem), a_(alloc) {}

  CheckReport run() {
    check_structure();
    if (!report_.ok()) return std::move(report_);
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
    const auto needed = needed_types_per_processor_reference(p_, a_);
    for (std::size_t u = 0; u < a_.processors.size(); ++u) {
      std::set<int> routed;
      for (const auto& dl : a_.processors[u].downloads) {
        if (dl.object_type < 0 ||
            dl.object_type >= p_.tree->catalog().count()) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " downloads unknown type");
          continue;
        }
        if (!routed.insert(dl.object_type).second) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " downloads type " +
                   std::to_string(dl.object_type) + " twice");
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
      const std::set<int> need(needed[u].begin(), needed[u].end());
      for (int t : need) {
        if (!routed.count(t)) {
          fail(ViolationKind::DownloadRouting,
               "P" + std::to_string(u) + " misses a route for type " +
                   std::to_string(t));
        }
      }
      for (int t : routed) {
        if (!need.count(t)) {
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
    const LinkLoadsReference links = compute_link_loads_reference(p_, a_);
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

struct Demand {
  int proc;
  int type;
};

} // namespace

CheckReport check_allocation_reference(const Problem& problem,
                                       const Allocation& alloc) {
  return ReferenceChecker(problem, alloc).run();
}

ServerSelectionResult select_servers_three_loop_reference(
    const Problem& problem, Allocation& alloc) {
  const Platform& plat = *problem.platform;
  const ObjectCatalog& objects = problem.tree->catalog();
  for (auto& p : alloc.processors) p.downloads.clear();

  std::vector<MBps> caps;
  for (int l = 0; l < plat.num_servers(); ++l) {
    caps.push_back(plat.server(l).card_bandwidth);
  }
  CardLedger cards(std::move(caps));
  LinkLedger links(plat.link_server_proc());

  auto rate_of = [&](int type) { return objects.type(type).rate(); };
  auto can_route = [&](int server, int proc, MBps r) {
    return cards.can_add(server, r) && links.can_add(server, proc, r);
  };
  auto route = [&](int server, int proc, int type) {
    const MBps r = rate_of(type);
    cards.add(server, r);
    links.add(server, proc, r);
    alloc.processors[static_cast<std::size_t>(proc)].downloads.push_back(
        {type, server});
  };

  std::vector<Demand> pending;
  const auto needed = needed_types_per_processor_reference(problem, alloc);
  for (std::size_t u = 0; u < needed.size(); ++u) {
    for (int t : needed[u]) pending.push_back({static_cast<int>(u), t});
  }

  // Loop 1: types with a single hosting server have no choice.
  {
    std::vector<Demand> still;
    for (const auto& d : pending) {
      const auto& hosts = plat.servers_with(d.type);
      if (hosts.empty()) {
        return {false, "object type " + std::to_string(d.type) +
                           " is hosted by no server"};
      }
      if (hosts.size() == 1) {
        const int s = hosts.front();
        if (!can_route(s, d.proc, rate_of(d.type))) {
          std::ostringstream ss;
          ss << "loop1: exclusive server S" << s << " cannot sustain type "
             << d.type << " for P" << d.proc;
          return {false, ss.str()};
        }
        route(s, d.proc, d.type);
      } else {
        still.push_back(d);
      }
    }
    pending = std::move(still);
  }

  // Loop 2: prefer servers that host a single object type.
  {
    std::vector<Demand> still;
    for (const auto& d : pending) {
      bool routed = false;
      for (int s : plat.servers_with(d.type)) {
        if (plat.server(s).object_types.size() == 1 &&
            can_route(s, d.proc, rate_of(d.type))) {
          route(s, d.proc, d.type);
          routed = true;
          break;
        }
      }
      if (!routed) still.push_back(d);
    }
    pending = std::move(still);
  }

  // Loop 3: remaining demands, types by decreasing nbP/nbS.
  {
    std::map<int, int> nbP;
    for (const auto& d : pending) ++nbP[d.type];
    auto nbS = [&](int type) {
      int n = 0;
      const MBps r = rate_of(type);
      for (int s : plat.servers_with(type)) {
        if (cards.can_add(s, r)) ++n;
      }
      return n;
    };
    std::vector<int> types;
    std::map<int, double> ratio;
    for (const auto& [t, np] : nbP) {
      const int ns = nbS(t);
      ratio[t] = ns == 0 ? std::numeric_limits<double>::infinity()
                         : static_cast<double>(np) / ns;
      types.push_back(t);
    }
    std::sort(types.begin(), types.end(), [&](int a, int b) {
      if (ratio[a] != ratio[b]) return ratio[a] > ratio[b];
      return a < b;
    });

    for (int t : types) {
      const MBps r = rate_of(t);
      for (const auto& d : pending) {
        if (d.type != t) continue;
        int best = -1;
        MBps best_headroom = -1.0;
        for (int s : plat.servers_with(t)) {
          const MBps h =
              std::min(cards.headroom(s), links.headroom(d.proc, s));
          if (h > best_headroom) {
            best_headroom = h;
            best = s;
          }
        }
        if (best < 0 || !can_route(best, d.proc, r)) {
          std::ostringstream ss;
          ss << "loop3: no server can sustain type " << t << " for P"
             << d.proc;
          return {false, ss.str()};
        }
        route(best, d.proc, t);
      }
    }
  }

  for (auto& p : alloc.processors) {
    std::sort(p.downloads.begin(), p.downloads.end(),
              [](const DownloadRoute& a, const DownloadRoute& b) {
                if (a.object_type != b.object_type) {
                  return a.object_type < b.object_type;
                }
                return a.server < b.server;
              });
  }
  return {true, ""};
}

} // namespace insp
