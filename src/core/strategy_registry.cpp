#include "core/strategy_registry.hpp"

#include <cstdio>
#include <cstdlib>

namespace insp {

const std::vector<PlacementStrategy>& placement_registry() {
  static const std::vector<PlacementStrategy> kRegistry = {
      {HeuristicKind::Random, "Random", "random", 'R', place_random,
       ServerSelectionKind::RandomChoice},
      {HeuristicKind::CompGreedy, "Comp-Greedy", "comp-greedy", 'W',
       place_comp_greedy, ServerSelectionKind::ThreeLoop},
      {HeuristicKind::CommGreedy, "Comm-Greedy", "comm-greedy", 'C',
       place_comm_greedy, ServerSelectionKind::ThreeLoop},
      {HeuristicKind::SubtreeBottomUp, "Subtree-bottom-up", "sbu", 'S',
       place_subtree_bottom_up, ServerSelectionKind::ThreeLoop},
      {HeuristicKind::ObjectGrouping, "Object-Grouping", "object-grouping",
       'G', place_object_grouping, ServerSelectionKind::ThreeLoop},
      {HeuristicKind::ObjectAvailability, "Object-Availability",
       "object-availability", 'A', place_object_availability,
       ServerSelectionKind::ThreeLoop},
  };
  return kRegistry;
}

const PlacementStrategy& strategy_for(HeuristicKind kind) {
  for (const PlacementStrategy& s : placement_registry()) {
    if (s.kind == kind) return s;
  }
  // A kind without a registry row is a programming error; silently running
  // a different strategy would corrupt experiment results, so die loudly
  // even in release builds.
  std::fprintf(stderr,
               "strategy_for: HeuristicKind %d has no registry entry\n",
               static_cast<int>(kind));
  std::abort();
}

const PlacementStrategy* strategy_by_name(const std::string& name) {
  for (const PlacementStrategy& s : placement_registry()) {
    if (name == s.name || name == s.cli_name) return &s;
  }
  return nullptr;
}

const std::vector<HeuristicKind>& all_heuristics() {
  static const std::vector<HeuristicKind> kAll = [] {
    std::vector<HeuristicKind> kinds;
    for (const PlacementStrategy& s : placement_registry()) {
      kinds.push_back(s.kind);
    }
    return kinds;
  }();
  return kAll;
}

const char* heuristic_name(HeuristicKind kind) {
  return strategy_for(kind).name;
}

std::optional<HeuristicKind> heuristic_from_name(const std::string& name) {
  const PlacementStrategy* s = strategy_by_name(name);
  if (s == nullptr) return std::nullopt;
  return s->kind;
}

} // namespace insp
