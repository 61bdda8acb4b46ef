// The unit conversions are load-bearing: the entire calibration argument
// (docs/DESIGN.md §6) rests on them.  Pin them.
#include "util/units.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace insp {
namespace {

TEST(Units, GbpsToMBps) {
  EXPECT_DOUBLE_EQ(units::gbps(1), 125.0);
  EXPECT_DOUBLE_EQ(units::gbps(2), 250.0);
  EXPECT_DOUBLE_EQ(units::gbps(4), 500.0);
  EXPECT_DOUBLE_EQ(units::gbps(10), 1250.0);
  EXPECT_DOUBLE_EQ(units::gbps(20), 2500.0);
}

TEST(Units, GigabytesPerSecToMBps) {
  EXPECT_DOUBLE_EQ(units::gigabytes_per_sec(1.0), 1000.0);   // links
  EXPECT_DOUBLE_EQ(units::gigabytes_per_sec(10.0), 10000.0); // server cards
}

TEST(Units, GhzToMopsPerSec) {
  EXPECT_DOUBLE_EQ(units::ghz(11.72), 11720.0);
  EXPECT_DOUBLE_EQ(units::ghz(46.88), 46880.0);
}

TEST(Units, FitsWithinExactBoundary) {
  EXPECT_TRUE(fits_within(100.0, 100.0));
  EXPECT_TRUE(fits_within(0.0, 0.0));
  EXPECT_FALSE(fits_within(100.1, 100.0));
}

TEST(Units, FitsWithinToleratesAccumulationNoise) {
  double load = 0.0;
  for (int i = 0; i < 10; ++i) load += 10.0 + 1e-13;
  EXPECT_TRUE(fits_within(load, 100.0));
}

TEST(Units, FitsWithinRejectsRealViolations) {
  // The smallest real violation in the model is one object rate
  // (>= 5 MB * 0.02 Hz = 0.1 MB/s) — far above the epsilon.
  EXPECT_FALSE(fits_within(100.1, 100.0));
  EXPECT_FALSE(fits_within(0.1, 0.0));
}

TEST(Units, NoWorseIsFitsWithinWhenTheCapacityFitBefore) {
  // Fit before: exactly fits_within(now, capacity), epsilon included.
  for (double now : {0.0, 60.0, 100.0, 100.0 + 50e-6, 100.1, 150.0}) {
    for (double before : {0.0, 40.0, 100.0, 100.0 + 50e-6}) {
      ASSERT_TRUE(fits_within(before, 100.0));
      EXPECT_EQ(no_worse(now, before, 100.0), fits_within(now, 100.0))
          << "now " << now << ", before " << before;
    }
  }
  // The corner: within epsilon of the limit before, just past it after —
  // still within epsilon of the prior load, but a new violation.
  EXPECT_FALSE(no_worse(100.0 + 120e-6, 100.0 + 50e-6, 100.0));
}

TEST(Units, NoWorseLetsAViolationShrinkButNotGrow) {
  EXPECT_TRUE(no_worse(140.0, 150.0, 100.0));   // drained, still over
  EXPECT_TRUE(no_worse(150.0, 150.0, 100.0));   // untouched
  EXPECT_TRUE(no_worse(90.0, 150.0, 100.0));    // fixed
  EXPECT_FALSE(no_worse(150.1, 150.0, 100.0));  // grew
}

TEST(Units, CalibrationAnchorsFromThePaper) {
  // The three feasibility anchors of docs/DESIGN.md §6, stated as arithmetic:
  // root work (sum leaf MB)^alpha in Mops vs the fastest CPU in Mops/s.
  const double fastest = units::ghz(46.88);
  // N=60 trees: ~30 leaves x 17.5 MB ~ 525 MB. Feasible at alpha 1.7,
  // infeasible at 1.8 (paper Fig 3 thresholds).
  EXPECT_LT(std::pow(525.0, 1.7), fastest);
  EXPECT_GT(std::pow(525.0, 1.8), fastest);
  // N=20 trees: ~175 MB. Infeasible just past alpha ~2.1 (paper: 2.2).
  EXPECT_LT(std::pow(175.0, 2.0), fastest);
  EXPECT_GT(std::pow(175.0, 2.2), fastest);
  // Large objects: one 450-530 MB download at 1/2 Hz exceeds a 1 Gbps card
  // but fits a 1 GB/s link.
  EXPECT_GT(450.0 * 0.5, units::gbps(1));
  EXPECT_LT(530.0 * 0.5, units::gigabytes_per_sec(1.0));
}

} // namespace
} // namespace insp
