// Unified catalog of operator-placement strategies: the paper's six
// heuristics (§4.1), each bundling the enum kind, canonical display name,
// CLI spelling, placement function, and the server-selection policy the
// paper pairs it with.  The allocator pipeline, the experiment harness, and
// the bench CLI flag parsing all consume this one table instead of
// maintaining parallel switch statements, name lists, and function maps.
// Ablation variants are not strategies; they live in tests/oracles/.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/placement_heuristics.hpp"

namespace insp {

/// The paper's six, in presentation order.
enum class HeuristicKind {
  Random,
  CompGreedy,
  CommGreedy,
  SubtreeBottomUp,
  ObjectGrouping,
  ObjectAvailability,
};

/// Server-selection phase (paper §4.2): Random placement is paired with
/// random selection, every other heuristic with the three-loop selection.
enum class ServerSelectionKind {
  RandomChoice,
  ThreeLoop,
};

struct PlacementStrategy {
  HeuristicKind kind;
  const char* name;      ///< canonical display name (the paper's spelling)
  const char* cli_name;  ///< lower-case spelling for --heuristics flags
  char marker;           ///< single-char series marker for ASCII charts
  PlacementFn place;
  /// The server-selection phase allocate() pairs this strategy with.
  ServerSelectionKind default_selection;
};

/// Every registered strategy: the paper's six, in HeuristicKind order.
const std::vector<PlacementStrategy>& placement_registry();

/// Registry row for a kind (every enumerator is registered).
const PlacementStrategy& strategy_for(HeuristicKind kind);

/// Lookup by display or CLI name; nullptr when unknown.
const PlacementStrategy* strategy_by_name(const std::string& name);

/// The registry's kinds, in the paper's presentation order.
const std::vector<HeuristicKind>& all_heuristics();
const char* heuristic_name(HeuristicKind kind);
std::optional<HeuristicKind> heuristic_from_name(const std::string& name);

} // namespace insp
