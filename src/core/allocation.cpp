#include "core/allocation.hpp"

#include <algorithm>
#include <sstream>

namespace insp {

namespace {

/// Folds appended (key, contribution) pairs into one entry per key, sorted
/// by key.  The stable sort keeps each key's contributions in append order
/// and every sum starts from 0.0, so each load is the exact sequence of
/// `+=` a std::map accumulator would perform: the sums are bit-identical.
void fold_by_key(std::vector<LinkLoads::Entry>& entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const LinkLoads::Entry& a, const LinkLoads::Entry& b) {
                     return a.first < b.first;
                   });
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size();) {
    const std::pair<int, int> key = entries[i].first;
    MBps sum = 0.0;
    for (; i < entries.size() && entries[i].first == key; ++i) {
      sum += entries[i].second;
    }
    entries[out++] = {key, sum};
  }
  entries.resize(out);
}

} // namespace

Dollars Allocation::total_cost(const PriceCatalog& catalog) const {
  Dollars total = 0.0;
  for (const auto& p : processors) total += catalog.cost(p.config);
  return total;
}

std::string Allocation::describe(const Problem& problem) const {
  std::ostringstream out;
  const auto loads = compute_processor_loads(problem, *this);
  out << "allocation: " << processors.size() << " processor(s), total $"
      << total_cost(*problem.catalog) << "\n";
  for (std::size_t u = 0; u < processors.size(); ++u) {
    const auto& p = processors[u];
    out << "  P" << u << " " << problem.catalog->describe(p.config) << " ops[";
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      out << (i ? "," : "") << p.ops[i];
    }
    out << "] cpu=" << loads[u].cpu_demand << "/"
        << problem.catalog->speed(p.config)
        << " nic=" << loads[u].nic_total() << "/"
        << problem.catalog->bandwidth(p.config);
    if (!p.downloads.empty()) {
      out << " dl{";
      for (std::size_t i = 0; i < p.downloads.size(); ++i) {
        out << (i ? "," : "") << "o" << p.downloads[i].object_type << "<-S"
            << p.downloads[i].server;
      }
      out << "}";
    }
    out << "\n";
  }
  return out.str();
}

std::vector<ProcessorLoads> compute_processor_loads(const Problem& problem,
                                                    const Allocation& alloc) {
  const OperatorTree& tree = *problem.tree;
  std::vector<ProcessorLoads> loads(alloc.processors.size());

  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    for (int op : alloc.processors[u].ops) {
      loads[u].cpu_demand += problem.rho * tree.op(op).work;
    }
  }

  // Downloads: distinct types per processor.
  const auto types = needed_types_per_processor(problem, alloc);
  for (std::size_t u = 0; u < types.size(); ++u) {
    for (int t : types[u]) {
      loads[u].download += tree.catalog().type(t).rate();
    }
  }

  // Crossing edges: the multicast rule (OperatorTree::visit_shipments).
  const auto proc_of = [&](int op) {
    return alloc.op_to_proc[static_cast<std::size_t>(op)];
  };
  for (const auto& n : tree.operators()) {
    const int uc = proc_of(n.id);
    if (uc == kNoNode) continue;
    tree.visit_shipments(n.id, uc, proc_of, [&](int up, MegaBytes mx) {
      const MBps v = problem.rho * mx;
      loads[static_cast<std::size_t>(uc)].comm_out += v;
      loads[static_cast<std::size_t>(up)].comm_in += v;
    });
  }
  return loads;
}

LinkLoads compute_link_loads(const Problem& problem, const Allocation& alloc) {
  const OperatorTree& tree = *problem.tree;
  const int num_servers = problem.platform->num_servers();
  const int num_types = tree.catalog().count();
  LinkLoads loads;
  loads.server_card.assign(static_cast<std::size_t>(num_servers), 0.0);
  std::size_t routes = 0;
  for (const auto& p : alloc.processors) routes += p.downloads.size();
  loads.server_proc.reserve(routes);
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    for (const auto& dl : alloc.processors[u].downloads) {
      if (dl.server < 0 || dl.server >= num_servers) continue;
      if (dl.object_type < 0 || dl.object_type >= num_types) continue;
      const MBps r = tree.catalog().type(dl.object_type).rate();
      loads.server_card[static_cast<std::size_t>(dl.server)] += r;
      loads.server_proc.push_back({{dl.server, static_cast<int>(u)}, r});
    }
  }
  const auto proc_of = [&](int op) {
    return alloc.op_to_proc[static_cast<std::size_t>(op)];
  };
  loads.proc_proc.reserve(static_cast<std::size_t>(tree.num_operators()));
  for (const auto& n : tree.operators()) {
    const int uc = proc_of(n.id);
    if (uc == kNoNode) continue;
    tree.visit_shipments(n.id, uc, proc_of, [&](int up, MegaBytes mx) {
      loads.proc_proc.push_back(
          {{std::min(uc, up), std::max(uc, up)}, problem.rho * mx});
    });
  }
  fold_by_key(loads.server_proc);
  fold_by_key(loads.proc_proc);
  return loads;
}

std::vector<std::vector<int>> needed_types_per_processor(
    const Problem& problem, const Allocation& alloc) {
  const OperatorTree& tree = *problem.tree;
  std::vector<std::vector<int>> out(alloc.processors.size());
  // last_proc[t]: the last processor that gathered type t, so each type is
  // appended once per processor without a per-processor set.
  std::vector<int> last_proc(static_cast<std::size_t>(tree.catalog().count()),
                             -1);
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    std::vector<int>& types = out[u];
    for (int op : alloc.processors[u].ops) {
      tree.visit_object_types(op, [&](int t) {
        int& last = last_proc[static_cast<std::size_t>(t)];
        if (last == static_cast<int>(u)) return;
        last = static_cast<int>(u);
        types.push_back(t);
      });
    }
    std::sort(types.begin(), types.end());
  }
  return out;
}

} // namespace insp
