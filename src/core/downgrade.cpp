#include "core/downgrade.hpp"

namespace insp {

ProcessorConfig downgraded_config(const PriceCatalog& catalog,
                                  const ProcessorConfig& current, MegaOps cpu,
                                  MBps nic) {
  const auto best = catalog.cheapest_meeting(cpu, nic);
  if (best && catalog.cost(*best) < catalog.cost(current)) return *best;
  return current;
}

DowngradeSummary downgrade_processors(const Problem& problem,
                                      Allocation& alloc) {
  DowngradeSummary summary;
  const auto loads = compute_processor_loads(problem, alloc);
  const PriceCatalog& cat = *problem.catalog;
  for (std::size_t u = 0; u < alloc.processors.size(); ++u) {
    auto& p = alloc.processors[u];
    const ProcessorConfig best = downgraded_config(
        cat, p.config, loads[u].cpu_demand, loads[u].nic_total());
    if (best == p.config) continue;
    const Dollars before = cat.cost(p.config);
    p.config = best;
    ++summary.processors_changed;
    summary.saved += before - cat.cost(best);
  }
  return summary;
}

} // namespace insp
