#include "sim/flow_analyzer.hpp"

#include <limits>
#include <sstream>

namespace insp {

const char* to_string(BottleneckKind kind) {
  switch (kind) {
    case BottleneckKind::None: return "none";
    case BottleneckKind::ProcessorCpu: return "processor-cpu";
    case BottleneckKind::ProcessorNic: return "processor-nic";
    case BottleneckKind::ServerCard: return "server-card";
    case BottleneckKind::ServerProcLink: return "server-proc-link";
    case BottleneckKind::ProcProcLink: return "proc-proc-link";
    case BottleneckKind::InfeasibleDownloads: return "infeasible-downloads";
  }
  return "?";
}

namespace {

struct Constraint {
  MBps fixed = 0.0;    ///< download share (rho-independent)
  double linear = 0.0; ///< per-rho share (work in Mops, or MB of traffic)
  double capacity = 0.0;
  BottleneckKind kind = BottleneckKind::None;
  std::string detail;
};

} // namespace

FlowAnalysis analyze_flow(const Problem& problem, const Allocation& alloc) {
  const Platform& plat = *problem.platform;
  const PriceCatalog& cat = *problem.catalog;

  std::vector<Constraint> constraints;

  // compute_processor_loads and compute_link_loads fold rho into their
  // outputs; evaluating them at unit rho yields the linear coefficients.
  Problem at_unit_rho = problem;
  at_unit_rho.rho = 1.0;
  const auto loads = compute_processor_loads(at_unit_rho, alloc);
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    const auto& cfg = alloc.processors[u].config;
    {
      Constraint c;
      c.linear = loads[u].cpu_demand;  // sum of w_i
      c.capacity = cat.speed(cfg);
      c.kind = BottleneckKind::ProcessorCpu;
      c.detail = "P" + std::to_string(u) + " CPU";
      constraints.push_back(std::move(c));
    }
    {
      Constraint c;
      c.fixed = loads[u].download;
      c.linear = loads[u].comm_in + loads[u].comm_out;
      c.capacity = cat.bandwidth(cfg);
      c.kind = BottleneckKind::ProcessorNic;
      c.detail = "P" + std::to_string(u) + " NIC";
      constraints.push_back(std::move(c));
    }
  }

  // Server cards and server->processor links are download-only (fixed
  // share); processor<->processor links are linear in rho, so at unit rho
  // their loads are the coefficients.
  const LinkLoads links = compute_link_loads(at_unit_rho, alloc);
  for (int l = 0; l < plat.num_servers(); ++l) {
    Constraint c;
    c.fixed = links.server_card[static_cast<std::size_t>(l)];
    c.capacity = plat.server(l).card_bandwidth;
    c.kind = BottleneckKind::ServerCard;
    c.detail = "S" + std::to_string(l) + " card";
    constraints.push_back(std::move(c));
  }
  for (const auto& [key, load] : links.server_proc) {
    Constraint c;
    c.fixed = load;
    c.capacity = plat.link_server_proc();
    c.kind = BottleneckKind::ServerProcLink;
    c.detail = "link S" + std::to_string(key.first) + "->P" +
               std::to_string(key.second);
    constraints.push_back(std::move(c));
  }
  for (const auto& [key, volume] : links.proc_proc) {
    Constraint c;
    c.linear = volume;
    c.capacity = plat.link_proc_proc();
    c.kind = BottleneckKind::ProcProcLink;
    c.detail = "link P" + std::to_string(key.first) + "<->P" +
               std::to_string(key.second);
    constraints.push_back(std::move(c));
  }

  FlowAnalysis out;
  out.downloads_feasible = true;
  out.max_throughput = std::numeric_limits<double>::infinity();
  for (const auto& c : constraints) {
    if (!fits_within(c.fixed, c.capacity)) {
      out.downloads_feasible = false;
      out.max_throughput = 0.0;
      out.bottleneck = BottleneckKind::InfeasibleDownloads;
      out.bottleneck_detail = c.detail;
      return out;
    }
    if (c.linear <= 0.0) continue;
    const double limit = (c.capacity - c.fixed) / c.linear;
    if (limit < out.max_throughput) {
      out.max_throughput = limit;
      out.bottleneck = c.kind;
      out.bottleneck_detail = c.detail;
    }
  }
  return out;
}

} // namespace insp
