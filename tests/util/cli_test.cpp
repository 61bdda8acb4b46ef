#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace insp {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(Cli, SpaceSeparatedValues) {
  auto args = make({"prog", "--n", "60", "--alpha", "1.7"});
  EXPECT_EQ(args.get_int("n", 0), 60);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0), 1.7);
}

TEST(Cli, EqualsSeparatedValues) {
  auto args = make({"prog", "--seed=99", "--csv=out.csv"});
  EXPECT_EQ(args.get_u64("seed", 0), 99u);
  EXPECT_EQ(args.get("csv", ""), "out.csv");
}

TEST(Cli, BooleanFlagForms) {
  auto args = make({"prog", "--verbose", "--fast=false"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("fast", true));
  EXPECT_TRUE(args.get_bool("absent", true));
  EXPECT_FALSE(args.get_bool("absent", false));
}

TEST(Cli, DefaultsWhenMissing) {
  auto args = make({"prog"});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_EQ(args.get("name", "def"), "def");
  EXPECT_FALSE(args.has("n"));
}

TEST(Cli, PositionalArguments) {
  auto args = make({"prog", "input.tree", "--n", "5", "out.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.tree");
  EXPECT_EQ(args.positional()[1], "out.txt");
}

TEST(Cli, UnknownOptionDetection) {
  auto args = make({"prog", "--n", "5", "--typo", "x"});
  const auto unknown = args.unknown({"n", "alpha"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Cli, FlagFollowedByFlagHasTrueValue) {
  auto args = make({"prog", "--a", "--b", "7"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_EQ(args.get_int("b", 0), 7);
}

// Death tests: a malformed or out-of-range numeric value is a usage error
// (exit 2), never a silent fallback to whatever prefix strto* accepted.
TEST(CliDeathTest, MalformedIntegerIsAUsageError) {
  EXPECT_EXIT(make({"prog", "--reps", "1O"}).get_int("reps", 5),
              ::testing::ExitedWithCode(2), "--reps expects an integer");
  EXPECT_EXIT(make({"prog", "--reps="}).get_int("reps", 5),
              ::testing::ExitedWithCode(2), "--reps");
  EXPECT_EXIT(make({"prog", "--reps", "--smoke"}).get_int("reps", 5),
              ::testing::ExitedWithCode(2), "got 'true'");
  EXPECT_EXIT(make({"prog", "--n", "99999999999999999999"}).get_int("n", 0),
              ::testing::ExitedWithCode(2), "--n");
}

TEST(CliDeathTest, MalformedSeedIsAUsageError) {
  EXPECT_EXIT(make({"prog", "--seed", "abc"}).get_u64("seed", 42),
              ::testing::ExitedWithCode(2), "--seed expects");
  EXPECT_EXIT(make({"prog", "--seed", "-1"}).get_u64("seed", 42),
              ::testing::ExitedWithCode(2), "--seed");
  EXPECT_EXIT(
      make({"prog", "--seed", "99999999999999999999"}).get_u64("seed", 42),
      ::testing::ExitedWithCode(2), "--seed");
}

TEST(CliDeathTest, MalformedDoubleIsAUsageError) {
  EXPECT_EXIT(make({"prog", "--alpha", "1.7x"}).get_double("alpha", 1.0),
              ::testing::ExitedWithCode(2), "--alpha expects a finite number");
  EXPECT_EXIT(make({"prog", "--alpha", "1e999"}).get_double("alpha", 1.0),
              ::testing::ExitedWithCode(2), "--alpha");
  EXPECT_EXIT(make({"prog", "--alpha", "nan"}).get_double("alpha", 1.0),
              ::testing::ExitedWithCode(2), "--alpha");
}

// A boolean takes only the spellings get_bool documents: `--gate=flase`
// must not silently switch a gate off, and `--smoke out.json` (the value
// binds to the flag) must not silently run full mode.
TEST(CliDeathTest, MalformedBooleanIsAUsageError) {
  EXPECT_EXIT(make({"prog", "--gate=flase"}).get_bool("gate", false),
              ::testing::ExitedWithCode(2), "--gate expects true/1/yes/on");
  EXPECT_EXIT(make({"prog", "--smoke", "out.json"}).get_bool("smoke", false),
              ::testing::ExitedWithCode(2), "got 'out.json'");
  EXPECT_EXIT(make({"prog", "--gate="}).get_bool("gate", true),
              ::testing::ExitedWithCode(2), "--gate");
  const auto args = make({"prog", "--a=yes", "--b=on", "--c=1", "--d=no",
                          "--e=off", "--f=0"});
  for (const char* name : {"a", "b", "c"}) {
    EXPECT_TRUE(args.get_bool(name, false)) << name;
  }
  for (const char* name : {"d", "e", "f"}) {
    EXPECT_FALSE(args.get_bool(name, true)) << name;
  }
}

TEST(Cli, WellFormedNumbersStillParse) {
  auto args = make({"prog", "--n", "-3", "--seed", "18446744073709551615",
                    "--alpha", "2.5e-1"});
  EXPECT_EQ(args.get_int("n", 0), -3);
  EXPECT_EQ(args.get_u64("seed", 0), 18446744073709551615ull);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.25);
}

} // namespace
} // namespace insp
