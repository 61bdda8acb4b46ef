#include "harness/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace insp {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 4.0);
  EXPECT_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), -3.0);
  EXPECT_EQ(s.max(), 3.0);
}

TEST(SampleSet, MeanAndStddev) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(SampleSet, PercentileSingleSample) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
}

TEST(SampleSet, PercentileAfterLaterAdds) {
  SampleSet s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(SampleSet, UnsortedInsertOrder) {
  SampleSet s;
  for (double v : {9.0, 1.0, 5.0, 3.0, 7.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

} // namespace
} // namespace insp
