// Third phase of every heuristic (paper §4): most placement heuristics buy
// only the most powerful processors; after server selection, every purchase
// is replaced by the *cheapest* catalog configuration whose CPU speed and
// NIC bandwidth still satisfy that processor's realized load.
//
// downgraded_config is that rule, and its only definition: the downgrade
// phase, local search's projected cost, the dynamic repair engine's
// re-pricing pass and the exact solver's leaf pricing all call it.
#pragma once

#include "core/allocation.hpp"
#include "core/problem.hpp"

namespace insp {

struct DowngradeSummary {
  int processors_changed = 0;
  Dollars saved = 0.0;  ///< cost before minus cost after (>= 0)
};

/// The cheapest configuration meeting `cpu` and `nic` when it is strictly
/// cheaper than `current`; `current` otherwise (a tie keeps it, and so
/// does a load no configuration meets).
ProcessorConfig downgraded_config(const PriceCatalog& catalog,
                                  const ProcessorConfig& current, MegaOps cpu,
                                  MBps nic);

/// Applies downgraded_config to every processor of `alloc` at its realized
/// load.
DowngradeSummary downgrade_processors(const Problem& problem,
                                      Allocation& alloc);

} // namespace insp
