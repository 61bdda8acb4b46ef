#include "tree/tree_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "../test_helpers.hpp"
#include "tree/tree_generator.hpp"

namespace insp {
namespace {

using testhelpers::fig1a_tree;

TEST(TreeIo, TextRoundTripPreservesStructure) {
  const OperatorTree t = fig1a_tree(1.3, 10.0);
  const OperatorTree r = from_text(to_text(t, 1.3));
  ASSERT_EQ(r.num_operators(), t.num_operators());
  ASSERT_EQ(r.num_leaves(), t.num_leaves());
  EXPECT_EQ(r.root(), t.root());
  for (int i = 0; i < t.num_operators(); ++i) {
    EXPECT_EQ(r.op(i).parent(), t.op(i).parent());
    EXPECT_EQ(r.op(i).children, t.op(i).children);
    EXPECT_DOUBLE_EQ(r.op(i).work, t.op(i).work);
    EXPECT_DOUBLE_EQ(r.op(i).output_mb, t.op(i).output_mb);
  }
  for (int l = 0; l < t.num_leaves(); ++l) {
    EXPECT_EQ(r.leaf(l).object_type, t.leaf(l).object_type);
    EXPECT_EQ(r.leaf(l).parent_op, t.leaf(l).parent_op);
  }
}

TEST(TreeIo, RoundTripRandomTrees) {
  Rng rng(5);
  TreeGenConfig cfg;
  cfg.num_operators = 40;
  cfg.alpha = 1.7;
  for (int i = 0; i < 10; ++i) {
    const OperatorTree t = generate_random_tree(rng, cfg);
    const OperatorTree r = from_text(to_text(t, cfg.alpha));
    ASSERT_EQ(r.num_operators(), t.num_operators());
    for (int op = 0; op < t.num_operators(); ++op) {
      ASSERT_EQ(r.op(op).parent(), t.op(op).parent());
      ASSERT_NEAR(r.op(op).work, t.op(op).work, 1e-9 * (1 + t.op(op).work));
    }
  }
}

TEST(TreeIo, DotContainsAllNodesAndEdges) {
  const OperatorTree t = fig1a_tree();
  const std::string dot = to_dot(t);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (int i = 0; i < t.num_operators(); ++i) {
    EXPECT_NE(dot.find("n" + std::to_string(i) + " ["), std::string::npos);
  }
  // 4 operator edges + 5 leaf edges.
  std::size_t arrows = 0, pos = 0;
  while ((pos = dot.find("->", pos)) != std::string::npos) {
    ++arrows;
    pos += 2;
  }
  EXPECT_EQ(arrows, 9u);
}

TEST(TreeIo, CommentsAndBlankLinesIgnored) {
  const OperatorTree t = fig1a_tree();
  std::string text = to_text(t, 1.0);
  text += "\n# trailing comment\n\n";
  EXPECT_NO_THROW(from_text(text));
}

TEST(TreeIo, RejectsMissingHeader) {
  EXPECT_THROW(from_text("objects 0\n"), std::invalid_argument);
}

TEST(TreeIo, RejectsCountMismatch) {
  const OperatorTree t = fig1a_tree();
  std::string text = to_text(t, 1.0);
  text += "object 99 5 0.5\n";  // extra object not counted in header
  EXPECT_THROW(from_text(text), std::invalid_argument);
}

TEST(TreeIo, RejectsUnknownDirective) {
  EXPECT_THROW(from_text("cinsp-tree 1\nbogus 1 2 3\n"),
               std::invalid_argument);
}

TEST(TreeIo, RejectsDuplicateOpIds) {
  const std::string text =
      "cinsp-tree 1\n"
      "alpha 1 work_scale 1\n"
      "objects 1\nobject 0 5 0.5\n"
      "operators 2 root 0\n"
      "op 0 parent -1\nop 0 parent -1\n"
      "leaf 0 0\n";
  EXPECT_THROW(from_text(text), std::invalid_argument);
}

TEST(TreeIo, RejectsOutOfRangeNumbers) {
  const auto text = [](const std::string& alpha_line,
                       const std::string& object_line) {
    return "cinsp-tree 1\n" + alpha_line + "\nobjects 1\n" + object_line +
           "\noperators 1 root 0\nop 0 parent -1\nleaf 0 0\n";
  };
  const std::string good_alpha = "alpha 1 work_scale 1";
  const std::string good_object = "object 0 5 0.5";
  EXPECT_NO_THROW(from_text(text(good_alpha, good_object)));
  // Object size and frequency must be > 0 (a negative size gave a negative
  // rate and root work; a zero frequency gave a zero rate).
  for (const char* bad : {"object 0 -5 0.5", "object 0 0 0.5",
                          "object 0 5 0", "object 0 5 -0.5"}) {
    EXPECT_THROW(from_text(text(good_alpha, bad)), std::invalid_argument)
        << bad;
  }
  // work_scale must be > 0 (a negative one gave negative work).
  for (const char* bad : {"alpha 1 work_scale -1", "alpha 1 work_scale 0"}) {
    EXPECT_THROW(from_text(text(bad, good_object)), std::invalid_argument)
        << bad;
  }
}

TEST(TreeIo, SaveAndLoadFile) {
  const std::string path = testing::TempDir() + "/cinsp_tree_io_test.tree";
  const OperatorTree t = fig1a_tree(0.9);
  save_tree(t, path, 0.9);
  const OperatorTree r = load_tree(path);
  EXPECT_EQ(r.num_operators(), t.num_operators());
  EXPECT_DOUBLE_EQ(r.op(0).work, t.op(0).work);
  std::remove(path.c_str());
}

TEST(TreeIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_tree("/nonexistent/x.tree"), std::runtime_error);
}

TEST(TreeIo, ForestRoundTripPreservesRootsAndStructure) {
  // Build a two-tree forest by hand.
  ObjectCatalog objects({{0, 10.0, 0.5}, {1, 20.0, 0.5}});
  std::vector<OperatorNode> ops(3);
  std::vector<LeafRef> leaves;
  ops[0].id = 0;
  ops[1].id = 1;
  ops[1].out = {{0, 0.0}};
  ops[0].children = {1};
  ops[2].id = 2;  // second root
  leaves.push_back({0, 1});
  ops[1].leaves = {0};
  leaves.push_back({1, 0});
  ops[0].leaves = {1};
  leaves.push_back({1, 2});
  ops[2].leaves = {2};
  OperatorTree forest(ops, leaves, std::vector<int>{0, 2}, objects);
  ASSERT_FALSE(forest.validate().has_value());
  forest.compute_work_and_outputs(1.0);

  const OperatorTree r = from_text(to_text(forest, 1.0));
  EXPECT_TRUE(r.is_forest());
  EXPECT_EQ(r.roots(), (std::vector<int>{0, 2}));
  ASSERT_EQ(r.num_operators(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.op(i).parent(), forest.op(i).parent());
    EXPECT_DOUBLE_EQ(r.op(i).work, forest.op(i).work);
  }
}

TEST(TreeIo, ForestTopDownCoversAllTrees) {
  ObjectCatalog objects({{0, 10.0, 0.5}});
  std::vector<OperatorNode> ops(2);
  std::vector<LeafRef> leaves = {{0, 0}, {0, 1}};
  ops[0].id = 0;
  ops[0].leaves = {0};
  ops[1].id = 1;
  ops[1].leaves = {1};
  OperatorTree forest(ops, leaves, std::vector<int>{0, 1}, objects);
  EXPECT_EQ(forest.top_down_order().size(), 2u);
  EXPECT_EQ(forest.bottom_up_order().size(), 2u);
}

} // namespace
} // namespace insp
