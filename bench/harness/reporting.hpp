// Rendering of sweep results: the text tables printed by the bench
// binaries (paper-figure rows), ASCII charts, and CSV dumps; and the one
// writer behind every BENCH_*.json artifact.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/sweep.hpp"

namespace insp {

/// Table: one row per x value, one column per heuristic, cells "mean-cost
/// (fail%)"; failed-only cells print "-".
std::string format_cost_table(const SweepResult& result);

/// Same layout, mean processor counts.
std::string format_processor_table(const SweepResult& result);

/// Failure-rate table (percent).
std::string format_failure_table(const SweepResult& result);

/// ASCII chart of mean cost vs x (NaN gaps where every run failed).
std::string format_cost_chart(const SweepResult& result,
                              const std::string& title);

/// CSV: x, heuristic, attempts, failures, mean_cost, stddev_cost,
/// mean_processors.
void write_sweep_csv(const SweepResult& result, const std::string& path);

/// Marker characters used consistently across charts/legends.
char heuristic_marker(HeuristicKind kind);

struct JsonArtifact;

/// One flat JSON object of a BENCH_*.json artifact: `"key": value` members
/// rendered as they are added, in order.  A double prints "%.<decimals>f",
/// the decimals its key always uses; strings go out verbatim (bench
/// identifiers and hex signatures need no escaping).  Other integer types
/// have no overload: cast, so no value silently lands in the wrong one.
class JsonRow {
 public:
  JsonRow& add(const char* key, int v) { return raw(key, std::to_string(v)); }
  JsonRow& add(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonRow& add(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonRow& add(const char* key, const std::string& v) {
    return raw(key, '"' + v + '"');
  }
  /// A literal would otherwise convert to bool, not to std::string.
  JsonRow& add(const char* key, const char* v) {
    return add(key, std::string(v));
  }
  JsonRow& add(const char* key, double v, int decimals);
  /// The one allowed level of nesting: a list of flat objects, one a line.
  JsonRow& add(const char* key, const std::vector<JsonRow>& table);

  bool empty() const { return members_.empty(); }

 private:
  friend std::string render_json_artifact(const JsonArtifact& artifact);
  JsonRow& raw(const char* key, const std::string& value) {
    members_.push_back('"' + std::string(key) + "\": " + value);
    return *this;
  }
  std::vector<std::string> members_;
};

/// A whole artifact: the envelope every bench shares, then its rows.
struct JsonArtifact {
  JsonArtifact(std::string bench_name, int version, std::uint64_t run_seed)
      : bench(std::move(bench_name)), schema_version(version), seed(run_seed) {}

  std::string bench;
  int schema_version;
  std::uint64_t seed;
  /// Where the numbers came from (host_stamp()): one flat `"host"` object
  /// printed after `seed`, left out while empty.
  JsonRow host;
  JsonRow extra;  ///< further top-level scalars, printed after `host`
  std::vector<JsonRow> results;
};

/// The measuring host: `cores` (hardware threads), `isa` (the x86
/// extensions the CPU reports, space-separated; "none" or "unknown"
/// elsewhere), `compiler`, `build_type` and `git_sha` (HEAD when the build
/// was configured, "-dirty" when the tree differed from it).
JsonRow host_stamp();

/// `v` as 16 lowercase hex digits (replay signatures).
std::string hex16(std::uint64_t v);

/// The artifact's text: two-space indentation, one key a line, nested
/// table entries one object a line.
std::string render_json_artifact(const JsonArtifact& artifact);

/// Writes render_json_artifact(artifact) to `path`.  False when the file
/// cannot be opened, written or closed; errno then holds the cause.
bool write_json_artifact(const JsonArtifact& artifact,
                         const std::string& path);

} // namespace insp
