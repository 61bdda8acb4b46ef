#include "harness/ascii_chart.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace insp {
namespace {

TEST(AsciiChart, RendersMarkersAndLegend) {
  ChartSeries s;
  s.name = "costs";
  s.marker = 'S';
  s.points = {{0, 0}, {1, 1}, {2, 4}};
  ChartOptions opt;
  opt.title = "test chart";
  opt.x_label = "N";
  const std::string out = render_ascii_chart({s}, opt);
  EXPECT_NE(out.find("test chart"), std::string::npos);
  EXPECT_NE(out.find('S'), std::string::npos);
  EXPECT_NE(out.find("S=costs"), std::string::npos);
  EXPECT_NE(out.find("N"), std::string::npos);
}

TEST(AsciiChart, SkipsNaNPoints) {
  ChartSeries s;
  s.name = "partial";
  s.marker = 'P';
  s.points = {{0, 1},
              {1, std::numeric_limits<double>::quiet_NaN()},
              {2, 3}};
  const std::string out = render_ascii_chart({s}, {});
  int count = 0;
  for (char c : out) count += c == 'P' ? 1 : 0;
  EXPECT_EQ(count, 3);  // 2 data points + 1 in the legend
}

TEST(AsciiChart, AllNaNProducesNote) {
  ChartSeries s;
  s.name = "empty";
  s.points = {{0, std::numeric_limits<double>::quiet_NaN()}};
  const std::string out = render_ascii_chart({s}, {});
  EXPECT_NE(out.find("no finite data"), std::string::npos);
}

TEST(AsciiChart, SinglePointDoesNotDivideByZero) {
  ChartSeries s;
  s.name = "one";
  s.marker = 'O';
  s.points = {{5, 5}};
  const std::string out = render_ascii_chart({s}, {});
  EXPECT_NE(out.find('O'), std::string::npos);
}

TEST(AsciiChart, MultipleSeriesAllAppear) {
  ChartSeries a, b;
  a.name = "A";
  a.marker = 'a';
  a.points = {{0, 0}, {1, 10}};
  b.name = "B";
  b.marker = 'b';
  b.points = {{0, 10}, {1, 0}};
  const std::string out = render_ascii_chart({a, b}, {});
  EXPECT_NE(out.find('a'), std::string::npos);
  EXPECT_NE(out.find('b'), std::string::npos);
}

TEST(AsciiChart, TickLabelsUseUnits) {
  ChartSeries s;
  s.name = "money";
  s.marker = 'm';
  s.points = {{0, 50000}, {10, 400000}};
  const std::string out = render_ascii_chart({s}, {});
  EXPECT_NE(out.find('k'), std::string::npos);  // 400k-style tick
}

} // namespace
} // namespace insp
