#include "report/allocation_report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "sim/flow_analyzer.hpp"

namespace insp {

namespace {

std::string pct(double used, double cap) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", cap > 0 ? 100.0 * used / cap : 0);
  return buf;
}

} // namespace

std::string allocation_to_dot(const Problem& problem,
                              const Allocation& alloc) {
  const OperatorTree& tree = *problem.tree;
  const PriceCatalog& cat = *problem.catalog;
  const auto loads = compute_processor_loads(problem, alloc);

  std::ostringstream out;
  out << "digraph allocation {\n  rankdir=BT;\n  compound=true;\n";

  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    const auto& p = alloc.processors[u];
    out << "  subgraph cluster_P" << u << " {\n"
        << "    label=\"P" << u << " " << cat.describe(p.config)
        << "\\ncpu " << loads[u].cpu_demand << "/" << cat.speed(p.config)
        << " nic " << loads[u].nic_total() << "/"
        << cat.bandwidth(p.config) << "\";\n";
    for (int op : p.ops) {
      out << "    n" << op << " [shape=box,label=\"n" << op << "\\nw="
          << tree.op(op).work << "\"];\n";
    }
    out << "  }\n";
  }

  // Data servers.
  for (int l = 0; l < problem.platform->num_servers(); ++l) {
    out << "  S" << l << " [shape=house,label=\"S" << l << "\"];\n";
  }

  // Dataflow edges (one arrow per out-edge); crossing edges carry a
  // bandwidth label.
  for (const auto& n : tree.operators()) {
    const int uc = alloc.op_to_proc[static_cast<std::size_t>(n.id)];
    for (const OutEdge& e : n.out) {
      const int up = alloc.op_to_proc[static_cast<std::size_t>(e.dst)];
      out << "  n" << n.id << " -> n" << e.dst;
      if (uc != up) {
        out << " [label=\"" << problem.rho * e.delta
            << " MB/s\",color=red,penwidth=2]";
      }
      out << ";\n";
    }
  }

  // Download streams.
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    for (const auto& dl : alloc.processors[u].downloads) {
      // Attach to the first operator on the processor needing the type.
      int anchor = alloc.processors[u].ops.front();
      for (int op : alloc.processors[u].ops) {
        const auto types = tree.object_types_of(op);
        if (std::find(types.begin(), types.end(), dl.object_type) !=
            types.end()) {
          anchor = op;
          break;
        }
      }
      out << "  S" << dl.server << " -> n" << anchor << " [style=dashed,"
          << "label=\"o" << dl.object_type << " "
          << tree.catalog().type(dl.object_type).rate() << " MB/s\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string utilization_table(const Problem& problem,
                              const Allocation& alloc) {
  const PriceCatalog& cat = *problem.catalog;
  const Platform& plat = *problem.platform;
  const auto loads = compute_processor_loads(problem, alloc);

  std::ostringstream out;
  out << "resource      utilization\n";
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    const auto& cfg = alloc.processors[u].config;
    out << "P" << u << " cpu      " << pct(loads[u].cpu_demand, cat.speed(cfg))
        << "   (" << loads[u].cpu_demand << " / " << cat.speed(cfg)
        << " Mops/s)\n";
    out << "P" << u << " nic      "
        << pct(loads[u].nic_total(), cat.bandwidth(cfg)) << "   ("
        << loads[u].nic_total() << " / " << cat.bandwidth(cfg) << " MB/s)\n";
  }

  const LinkLoads links = compute_link_loads(problem, alloc);
  for (int l = 0; l < plat.num_servers(); ++l) {
    const MBps load = links.server_card[static_cast<std::size_t>(l)];
    out << "S" << l << " card     " << pct(load, plat.server(l).card_bandwidth)
        << "   (" << load << " / " << plat.server(l).card_bandwidth
        << " MB/s)\n";
  }
  for (const auto& [key, load] : links.server_proc) {
    out << "link S" << key.first << "->P" << key.second << "  "
        << pct(load, plat.link_server_proc()) << "   (" << load << " / "
        << plat.link_server_proc() << " MB/s)\n";
  }
  return out.str();
}

std::string plan_summary(const Problem& problem, const Allocation& alloc) {
  const PriceCatalog& cat = *problem.catalog;
  std::ostringstream out;
  out << "PURCHASE PLAN — " << alloc.num_processors()
      << " processor(s), total $" << alloc.total_cost(cat) << "\n";
  std::map<std::string, int> counts;
  for (const auto& p : alloc.processors) {
    ++counts[cat.describe(p.config)];
  }
  for (const auto& [desc, n] : counts) {
    out << "  " << n << " x " << desc << "\n";
  }
  const FlowAnalysis flow = analyze_flow(problem, alloc);
  out << "sustainable throughput: " << flow.max_throughput
      << " results/s (target " << problem.rho << ", headroom "
      << (problem.rho > 0 ? flow.max_throughput / problem.rho : 0)
      << "x)\n";
  out << "bottleneck: " << flow.bottleneck_detail << " ["
      << to_string(flow.bottleneck) << "]\n";
  out << "\n" << utilization_table(problem, alloc);
  return out.str();
}

} // namespace insp
