#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "harness/reporting.hpp"

namespace insp {
namespace {

InstanceConfig tiny_cfg(double n) {
  InstanceConfig cfg;
  cfg.tree.num_operators = static_cast<int>(n);
  cfg.tree.alpha = 1.0;
  cfg.servers.num_servers = 6;
  return cfg;
}

TEST(ExperimentHarness, MakeInstanceDeterministic) {
  const InstanceConfig cfg = tiny_cfg(20);
  const Instance a = make_instance(7, cfg);
  const Instance b = make_instance(7, cfg);
  EXPECT_EQ(a.tree().num_operators(), b.tree().num_operators());
  for (int i = 0; i < a.tree().num_operators(); ++i) {
    EXPECT_EQ(a.tree().op(i).parent(), b.tree().op(i).parent());
  }
  for (int l = 0; l < a.platform().num_servers(); ++l) {
    EXPECT_EQ(a.platform().server(l).object_types,
              b.platform().server(l).object_types);
  }
  const Instance c = make_instance(8, cfg);
  bool differs = c.tree().num_leaves() != a.tree().num_leaves();
  for (int i = 0; !differs && i < a.tree().num_operators(); ++i) {
    differs = a.tree().op(i).parent() != c.tree().op(i).parent();
  }
  EXPECT_TRUE(differs);
}

TEST(ExperimentHarness, ProblemPointsIntoInstance) {
  const Instance inst = make_instance(1, tiny_cfg(10));
  const Problem p = inst.problem();
  ASSERT_TRUE(p.valid());
  EXPECT_EQ(p.tree, &inst.tree());
  EXPECT_EQ(p.platform, &inst.platform());
}

TEST(ExperimentHarness, HomogeneousFlagSwitchesCatalog) {
  InstanceConfig cfg = tiny_cfg(10);
  cfg.homogeneous_catalog = true;
  const Instance inst = make_instance(1, cfg);
  EXPECT_TRUE(inst.catalog().is_homogeneous());
}

TEST(ExperimentHarness, SweepShapesAndCounts) {
  SweepSpec spec;
  spec.x_name = "N";
  spec.xs = {5, 10};
  spec.repetitions = 3;
  spec.config_for = tiny_cfg;
  spec.heuristics = {HeuristicKind::SubtreeBottomUp, HeuristicKind::Random};
  const SweepResult r = run_sweep(spec);
  ASSERT_EQ(r.xs.size(), 2u);
  ASSERT_EQ(r.heuristics.size(), 2u);
  for (HeuristicKind h : r.heuristics) {
    ASSERT_EQ(r.cells.at(h).size(), 2u);
    for (const auto& cell : r.cells.at(h)) {
      EXPECT_EQ(cell.attempts, 3);
      EXPECT_EQ(cell.failures + static_cast<int>(cell.cost.count()), 3);
    }
  }
}

TEST(ExperimentHarness, SweepDefaultsToAllHeuristics) {
  SweepSpec spec;
  spec.xs = {5};
  spec.repetitions = 1;
  spec.config_for = tiny_cfg;
  const SweepResult r = run_sweep(spec);
  EXPECT_EQ(r.heuristics.size(), 6u);
}

TEST(ExperimentHarness, SweepDeterministicGivenSeed) {
  SweepSpec spec;
  spec.xs = {8};
  spec.repetitions = 2;
  spec.config_for = tiny_cfg;
  spec.heuristics = {HeuristicKind::CompGreedy};
  const SweepResult a = run_sweep(spec);
  const SweepResult b = run_sweep(spec);
  EXPECT_DOUBLE_EQ(a.cells.at(HeuristicKind::CompGreedy)[0].cost.mean(),
                   b.cells.at(HeuristicKind::CompGreedy)[0].cost.mean());
}

TEST(Reporting, TablesContainHeuristicNamesAndValues) {
  SweepSpec spec;
  spec.x_name = "N";
  spec.xs = {6};
  spec.repetitions = 2;
  spec.config_for = tiny_cfg;
  spec.heuristics = {HeuristicKind::SubtreeBottomUp};
  const SweepResult r = run_sweep(spec);
  const std::string cost = format_cost_table(r);
  EXPECT_NE(cost.find("Subtree-bottom-up"), std::string::npos);
  EXPECT_NE(cost.find("N"), std::string::npos);
  const std::string procs = format_processor_table(r);
  EXPECT_NE(procs.find("1.0"), std::string::npos);
  const std::string fails = format_failure_table(r);
  EXPECT_NE(fails.find("0%"), std::string::npos);
  const std::string chart = format_cost_chart(r, "t");
  EXPECT_NE(chart.find("S=Subtree-bottom-up"), std::string::npos);
}

TEST(Reporting, CsvDumpHasHeaderAndRows) {
  SweepSpec spec;
  spec.xs = {6};
  spec.repetitions = 1;
  spec.config_for = tiny_cfg;
  spec.heuristics = {HeuristicKind::Random, HeuristicKind::CompGreedy};
  const SweepResult r = run_sweep(spec);
  const std::string path = testing::TempDir() + "/cinsp_sweep_test.csv";
  write_sweep_csv(r, path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line,
            "x,heuristic,attempts,failures,mean_cost,stddev_cost,"
            "mean_processors");
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2);
  std::remove(path.c_str());
}

TEST(Reporting, MarkersAreUniquePerHeuristic) {
  std::set<char> markers;
  for (HeuristicKind h : all_heuristics()) {
    markers.insert(heuristic_marker(h));
  }
  EXPECT_EQ(markers.size(), 6u);
}

} // namespace
} // namespace insp
