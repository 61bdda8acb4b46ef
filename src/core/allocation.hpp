// The output of the allocation pipeline: which processors were purchased,
// which operators run where, and from which server each processor downloads
// each basic object it needs (the DL(u) sets of the paper).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"

namespace insp {

/// One (object type, server) download route of a processor.
struct DownloadRoute {
  int object_type = -1;
  int server = -1;
  bool operator==(const DownloadRoute&) const = default;
};

struct PurchasedProcessor {
  ProcessorConfig config;
  std::vector<int> ops;                  ///< a-bar(u): operators mapped here
  std::vector<DownloadRoute> downloads;  ///< DL(u)
  bool operator==(const PurchasedProcessor&) const = default;
};

struct Allocation {
  std::vector<PurchasedProcessor> processors;
  /// op id -> processor index; kNoNode when unassigned (invalid allocation).
  std::vector<int> op_to_proc;

  bool operator==(const Allocation&) const = default;

  int num_processors() const { return static_cast<int>(processors.size()); }
  Dollars total_cost(const PriceCatalog& catalog) const;
  /// Human-readable purchase plan (one line per processor).
  std::string describe(const Problem& problem) const;
};

/// Per-processor load summary used by the checker, the downgrade step and
/// the reports.  All values at the problem's rho.
struct ProcessorLoads {
  MegaOps cpu_demand = 0.0;   ///< rho * sum(w_i); feasible iff <= speed
  MBps download = 0.0;        ///< sum of distinct-type download rates
  MBps comm_in = 0.0;         ///< rho * volumes from children elsewhere
  MBps comm_out = 0.0;        ///< rho * volumes to parents elsewhere
  MBps nic_total() const { return download + comm_in + comm_out; }
};

/// Recomputes loads from scratch (no dependence on PlacementState) so tests
/// can cross-validate the incremental accounting against this ground truth.
std::vector<ProcessorLoads> compute_processor_loads(const Problem& problem,
                                                    const Allocation& alloc);

/// Link and server-card loads, at the problem's rho.  The one aggregation
/// behind the checker's constraints (3)-(5), the flow analyzer and the
/// utilization report.
struct LinkLoads {
  /// One loaded link: (key, load).  The pair lists are flat vectors sorted
  /// by key with one entry per link, iterated like the maps they replace.
  using Entry = std::pair<std::pair<int, int>, MBps>;
  std::vector<MBps> server_card;   ///< per server, (3)
  std::vector<Entry> server_proc;  ///< (server, proc), (4)
  std::vector<Entry> proc_proc;    ///< (lo, hi) procs, (5)
};

/// Recomputes link loads from scratch.  Download routes naming an unknown
/// server or object type are skipped (the checker reports them as
/// DownloadRouting violations); the processor pairs follow the multicast
/// rule of OperatorTree::visit_shipments.  Each link's load is its
/// contributions summed from 0.0 in visit order (docs/DESIGN.md §11).
LinkLoads compute_link_loads(const Problem& problem, const Allocation& alloc);

/// Distinct object types needed on each processor, sorted ascending.
std::vector<std::vector<int>> needed_types_per_processor(
    const Problem& problem, const Allocation& alloc);

} // namespace insp
