#include "core/server_selection.hpp"

#include <limits>

#include <algorithm>
#include <sstream>

#include "net/bandwidth_ledger.hpp"

namespace insp {

namespace {

/// One outstanding download demand: processor u needs object type t.
struct Demand {
  int proc;
  int type;
};

/// Every (processor, needed type) demand, processors ascending and types
/// ascending within one; reserves each processor's download list.
std::vector<Demand> collect_demands(const Problem& problem,
                                    Allocation& alloc) {
  const auto needed = needed_types_per_processor(problem, alloc);
  std::size_t total = 0;
  for (const auto& types : needed) total += types.size();
  std::vector<Demand> out;
  out.reserve(total);
  for (std::size_t u = 0; u < needed.size(); ++u) {
    alloc.processors[u].downloads.reserve(needed[u].size());
    for (int t : needed[u]) {
      out.push_back({static_cast<int>(u), t});
    }
  }
  return out;
}

std::vector<MBps> server_capacities(const Platform& plat) {
  std::vector<MBps> caps;
  caps.reserve(static_cast<std::size_t>(plat.num_servers()));
  for (int l = 0; l < plat.num_servers(); ++l) {
    caps.push_back(plat.server(l).card_bandwidth);
  }
  return caps;
}

} // namespace

ServerSelectionResult select_servers_random(const Problem& problem,
                                            Allocation& alloc, Rng& rng) {
  const Platform& plat = *problem.platform;
  for (auto& p : alloc.processors) p.downloads.clear();

  for (const auto& d : collect_demands(problem, alloc)) {
    const auto& hosts = plat.servers_with(d.type);
    if (hosts.empty()) {
      return {false, "object type " + std::to_string(d.type) +
                         " is hosted by no server"};
    }
    const int server = hosts[rng.index(hosts.size())];
    alloc.processors[static_cast<std::size_t>(d.proc)].downloads.push_back(
        {d.type, server});
  }

  // The random policy is capacity-oblivious (paper §4.2); validate now so
  // overloads surface as heuristic failures rather than silent bad plans.
  CardLedger cards(server_capacities(plat));
  LinkLedger links(plat.link_server_proc());
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    for (const auto& dl : alloc.processors[u].downloads) {
      const MBps r = problem.tree->catalog().type(dl.object_type).rate();
      cards.add(dl.server, r);
      links.add(dl.server, static_cast<int>(u), r);
    }
  }
  for (int l = 0; l < plat.num_servers(); ++l) {
    if (!fits_within(cards.used(l), cards.capacity(l))) {
      return {false, "random server selection overloads server card S" +
                         std::to_string(l)};
    }
  }
  if (!links.all_within()) {
    return {false, "random server selection overloads a server-proc link"};
  }
  return {true, ""};
}

ServerSelectionResult select_servers_three_loop(const Problem& problem,
                                                Allocation& alloc) {
  const Platform& plat = *problem.platform;
  const ObjectCatalog& objects = problem.tree->catalog();
  for (auto& p : alloc.processors) p.downloads.clear();

  CardLedger cards(server_capacities(plat));
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

  std::vector<Demand> pending = collect_demands(problem, alloc);
  // Loops 1 and 2 compact `pending` in place, keeping the demands they
  // leave in their original order.
  std::size_t kept = 0;

  // ---- Loop 1: types with a single hosting server have no choice. --------
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
      pending[kept++] = d;
    }
  }
  pending.resize(kept);

  // ---- Loop 2: prefer servers that host a single object type. ------------
  kept = 0;
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
    if (!routed) pending[kept++] = d;
  }
  pending.resize(kept);

  // ---- Loop 3: remaining demands, types by decreasing nbP/nbS. -----------
  {
    auto nbS = [&](int type) {
      int n = 0;
      const MBps r = rate_of(type);
      for (int s : plat.servers_with(type)) {
        if (cards.can_add(s, r)) ++n;
      }
      return n;
    };
    // Group the demands by type, each type's in pending order: one run per
    // type, whose length is nbP(type).
    std::stable_sort(pending.begin(), pending.end(),
                     [](const Demand& a, const Demand& b) {
                       return a.type < b.type;
                     });
    struct Run {
      int type;
      std::size_t begin, end;  ///< the type's demands in `pending`
      double ratio;            ///< nbP / nbS
    };
    std::vector<Run> runs;
    for (std::size_t i = 0; i < pending.size();) {
      const int t = pending[i].type;
      std::size_t j = i;
      while (j < pending.size() && pending[j].type == t) ++j;
      const int ns = nbS(t);
      runs.push_back({t, i, j,
                      ns == 0 ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(j - i) / ns});
      i = j;
    }
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      if (a.ratio != b.ratio) return a.ratio > b.ratio;
      return a.type < b.type;
    });

    for (const Run& run : runs) {
      const int t = run.type;
      const MBps r = rate_of(t);
      for (std::size_t i = run.begin; i < run.end; ++i) {
        const int proc = pending[i].proc;
        // Pick the hosting server with the largest usable headroom
        // min(card headroom, link headroom) (paper: "servers are considered
        // in decreasing order of the minimum between the remaining bandwidth
        // capacity of the servers network card, and the bandwidth of the
        // communication link").
        int best = -1;
        MBps best_headroom = -1.0;
        for (int s : plat.servers_with(t)) {
          const MBps h = std::min(cards.headroom(s), links.headroom(proc, s));
          if (h > best_headroom) {
            best_headroom = h;
            best = s;
          }
        }
        if (best < 0 || !can_route(best, proc, r)) {
          std::ostringstream ss;
          ss << "loop3: no server can sustain type " << t << " for P" << proc;
          return {false, ss.str()};
        }
        route(best, proc, t);
      }
    }
  }

  // Keep download lists deterministic for output stability.
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
