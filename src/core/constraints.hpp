// Full validation of a finished allocation against the paper's constraints
// (1)-(5), plus structural sanity (every operator mapped, every needed
// object downloaded exactly once per processor from a hosting server).
//
// This checker recomputes everything from scratch (compute_processor_loads,
// compute_link_loads) and shares no accounting state with PlacementState —
// property tests validate one implementation against the other.  Both
// charge crossing edges through the one multicast rule,
// OperatorTree::visit_shipments; its independent restatements live in the
// tests (tests/core/charging_rule_test.cpp and the placement fuzzers).
#pragma once

#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/problem.hpp"

namespace insp {

enum class ViolationKind {
  Structure,       ///< unassigned op, dangling indices, duplicate downloads
  CpuCapacity,     ///< eq (1)
  ProcNic,         ///< eq (2)
  ServerCard,      ///< eq (3)
  ServerProcLink,  ///< eq (4)
  ProcProcLink,    ///< eq (5)
  DownloadRouting, ///< download from a server not hosting the type, or a
                   ///< needed type with no route / an unneeded route
};

const char* to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind;
  std::string detail;
};

struct CheckReport {
  std::vector<Violation> violations;
  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

CheckReport check_allocation(const Problem& problem, const Allocation& alloc);

} // namespace insp
