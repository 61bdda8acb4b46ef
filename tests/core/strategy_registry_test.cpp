#include "core/strategy_registry.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace insp {
namespace {

TEST(StrategyRegistry, HoldsExactlyThePaperSixInPaperOrder) {
  const std::vector<HeuristicKind> paper_order = {
      HeuristicKind::Random,         HeuristicKind::CompGreedy,
      HeuristicKind::CommGreedy,     HeuristicKind::SubtreeBottomUp,
      HeuristicKind::ObjectGrouping, HeuristicKind::ObjectAvailability};
  const auto& reg = placement_registry();
  ASSERT_EQ(reg.size(), paper_order.size());
  for (std::size_t i = 0; i < reg.size(); ++i) {
    EXPECT_EQ(reg[i].kind, paper_order[i]) << reg[i].name;
  }
  EXPECT_EQ(all_heuristics(), paper_order);
}

TEST(StrategyRegistry, EveryEntryIsComplete) {
  std::set<std::string> names, cli_names;
  std::set<char> markers;
  for (const PlacementStrategy& s : placement_registry()) {
    EXPECT_NE(s.name, nullptr);
    EXPECT_NE(s.cli_name, nullptr);
    EXPECT_TRUE(s.place != nullptr) << s.name;
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    EXPECT_TRUE(cli_names.insert(s.cli_name).second)
        << "duplicate cli name " << s.cli_name;
    EXPECT_TRUE(markers.insert(s.marker).second)
        << "duplicate marker " << s.marker;
    // strategy_for must resolve the entry's own kind back to it.
    EXPECT_STREQ(strategy_for(s.kind).name, s.name);
  }
}

TEST(StrategyRegistry, LookupByDisplayAndCliName) {
  for (const PlacementStrategy& s : placement_registry()) {
    const PlacementStrategy* by_display = strategy_by_name(s.name);
    const PlacementStrategy* by_cli = strategy_by_name(s.cli_name);
    ASSERT_NE(by_display, nullptr) << s.name;
    ASSERT_NE(by_cli, nullptr) << s.cli_name;
    EXPECT_EQ(by_display->kind, s.kind);
    EXPECT_EQ(by_cli->kind, s.kind);
  }
  EXPECT_EQ(strategy_by_name("not-a-heuristic"), nullptr);
  EXPECT_FALSE(heuristic_from_name("Nope").has_value());
  // CLI spellings resolve through the optional-returning helper too.
  EXPECT_EQ(heuristic_from_name("sbu"), HeuristicKind::SubtreeBottomUp);
  // Ablation variants are test-only oracles, not registry strategies.
  EXPECT_EQ(heuristic_from_name("sbu-no-coalesce"), std::nullopt);
  EXPECT_EQ(heuristic_from_name("random-pair"), std::nullopt);
}

TEST(StrategyRegistry, PaperSelectionPairing) {
  EXPECT_EQ(strategy_for(HeuristicKind::Random).default_selection,
            ServerSelectionKind::RandomChoice);
  for (HeuristicKind k :
       {HeuristicKind::CompGreedy, HeuristicKind::CommGreedy,
        HeuristicKind::SubtreeBottomUp, HeuristicKind::ObjectGrouping,
        HeuristicKind::ObjectAvailability}) {
    EXPECT_EQ(strategy_for(k).default_selection,
              ServerSelectionKind::ThreeLoop)
        << heuristic_name(k);
  }
}

} // namespace
} // namespace insp
