#include "harness/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace insp {
namespace {

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(Csv, EscapeQuotesCommasNewlines) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, InMemoryRows) {
  CsvWriter csv;
  csv.header({"a", "b", "c"});
  csv.cell(1).cell(2.5).cell(std::string("x,y"));
  csv.end_row();
  EXPECT_EQ(csv.str(), "a,b,c\n1,2.5,\"x,y\"\n");
}

TEST(Csv, IntegralDoublesPrintWithoutDecimals) {
  CsvWriter csv;
  csv.cell(7548.0);
  csv.end_row();
  EXPECT_EQ(csv.str(), "7548\n");
}

TEST(Csv, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/cinsp_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"x", "y"});
    csv.cell(1).cell(std::string("v"));
    csv.end_row();
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "x,y");
  EXPECT_EQ(line2, "1,v");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/file.csv"), std::runtime_error);
}

} // namespace
} // namespace insp
