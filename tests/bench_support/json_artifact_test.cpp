#include "harness/reporting.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace insp {
namespace {

TEST(JsonArtifact, RendersEnvelopeRowsAndNestedTableExactly) {
  JsonArtifact a{"demo", 2, 42};
  a.extra.add("hardware_concurrency", 8);
  a.results.push_back(
      JsonRow()
          .add("section", "fold")
          .add("n", -3)
          .add("ratio", 1.23456, 4)
          .add("cost", 99.5, 2)
          .add("ok", true)
          .add("signature", hex16(0x4ce628a287b5acaaull))
          .add("allocate", std::vector<JsonRow>{
                               JsonRow().add("heuristic", "SBU").add(
                                   "mean_ms", 0.1234, 3),
                               JsonRow().add("heuristic", "Random").add(
                                   "mean_ms", 2.0, 3)}));
  a.results.push_back(JsonRow()
                          .add("section", "gap")
                          .add("nodes", std::uint64_t{7})
                          .add("ok", false));
  EXPECT_EQ(render_json_artifact(a),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"schema_version\": 2,\n"
            "  \"seed\": 42,\n"
            "  \"hardware_concurrency\": 8,\n"
            "  \"results\": [\n"
            "    {\n"
            "      \"section\": \"fold\",\n"
            "      \"n\": -3,\n"
            "      \"ratio\": 1.2346,\n"
            "      \"cost\": 99.50,\n"
            "      \"ok\": true,\n"
            "      \"signature\": \"4ce628a287b5acaa\",\n"
            "      \"allocate\": [\n"
            "        {\"heuristic\": \"SBU\", \"mean_ms\": 0.123},\n"
            "        {\"heuristic\": \"Random\", \"mean_ms\": 2.000}\n"
            "      ]\n"
            "    },\n"
            "    {\n"
            "      \"section\": \"gap\",\n"
            "      \"nodes\": 7,\n"
            "      \"ok\": false\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonArtifact, HostStampIsOneFlatObjectAfterTheSeed) {
  JsonArtifact a{"demo", 1, 42};
  a.host = host_stamp();
  a.extra.add("hardware_concurrency", 8);
  a.results.push_back(JsonRow().add("n", 1));
  const std::string text = render_json_artifact(a);
  const std::size_t host = text.find("  \"host\": {\"cores\": ");
  ASSERT_NE(host, std::string::npos) << text;
  EXPECT_LT(text.find("\"seed\": 42"), host);
  EXPECT_GT(text.find("\"hardware_concurrency\": 8"), host);
  const std::string line = text.substr(host, text.find('\n', host) - host);
  for (const char* key : {"\"isa\": \"", "\"compiler\": \"",
                          "\"build_type\": \"", "\"git_sha\": \""}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
  }
  EXPECT_EQ(line.back(), ',');  // one line, then the next member
  EXPECT_EQ(line[line.size() - 2], '}');
}

TEST(JsonArtifact, SeedPrintsAsExactUint64) {
  JsonArtifact a{"demo", 1, 18446744073709551615ull};
  a.results.push_back(JsonRow().add("n", 1));
  EXPECT_NE(render_json_artifact(a).find(
                "  \"seed\": 18446744073709551615,\n"),
            std::string::npos);
}

TEST(JsonArtifact, LargeDoublesPrintInFull) {
  JsonArtifact a{"demo", 1, 1};
  a.results.push_back(JsonRow().add("rate", 1e300, 1));
  const std::string text = render_json_artifact(a);
  const std::size_t start = text.find("\"rate\": ") + 8;
  // 301 integer digits, then ".0": nothing is cut off.
  EXPECT_EQ(text.find('\n', start) - start, 303u);
  EXPECT_EQ(text.substr(start, 4), "1000");
}

TEST(JsonArtifact, HexSignatureKeepsLeadingZeros) {
  EXPECT_EQ(hex16(0x1f), "000000000000001f");
}

TEST(JsonArtifact, WritesTheRenderedTextToFile) {
  JsonArtifact a{"demo", 1, 7};
  a.results.push_back(JsonRow().add("n", 1));
  const std::string path = testing::TempDir() + "/insp_json_artifact.json";
  ASSERT_TRUE(write_json_artifact(a, path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), render_json_artifact(a));
  std::remove(path.c_str());
}

TEST(JsonArtifact, WriteIntoMissingDirectoryFails) {
  JsonArtifact a{"demo", 1, 7};
  a.results.push_back(JsonRow().add("n", 1));
  errno = 0;
  EXPECT_FALSE(write_json_artifact(
      a, testing::TempDir() + "/insp_no_such_dir/BENCH_demo.json"));
  EXPECT_EQ(errno, ENOENT);
}

} // namespace
} // namespace insp
