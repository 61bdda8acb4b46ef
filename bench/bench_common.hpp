// Shared plumbing for the figure-replication bench binaries: standard CLI
// flags, paper-default instance configs, the print-table/chart/CSV
// epilogue every sweep bench emits, and the JSON-artifact epilogue of the
// BENCH_*.json benches.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy_registry.hpp"
#include "harness/reporting.hpp"
#include "harness/sweep.hpp"
#include "util/cli.hpp"

namespace insp::benchx {

/// Paper §5 defaults: small objects [5,30] MB at 1/2 Hz, 15 types, 6 servers
/// with 10 GB/s cards, rho = 1, Table 1 catalog.
inline InstanceConfig paper_instance(int n_operators, double alpha) {
  InstanceConfig cfg;
  cfg.tree.num_operators = n_operators;
  cfg.tree.alpha = alpha;
  cfg.tree.num_object_types = 15;
  cfg.tree.object_size_lo = 5.0;
  cfg.tree.object_size_hi = 30.0;
  cfg.tree.download_freq = 0.5;  // high frequency, 1/2 s^-1
  cfg.tree.at_most_n = true;     // paper: trees "with at most N operators"
  cfg.servers.num_servers = 6;
  cfg.servers.num_object_types = 15;
  cfg.rho = 1.0;
  return cfg;
}

struct BenchFlags {
  /// The whole command line; benches read their own flags from here.
  CliArgs args;
  int repetitions;
  std::uint64_t seed;
  std::string csv_path;
  int threads;  ///< sweep worker threads: 0 = hardware concurrency, 1 = serial
  /// Strategies selected via --heuristics (comma-separated registry names);
  /// empty = the paper's six.
  std::vector<HeuristicKind> heuristics;
};

/// Parses a comma-separated list of strategy names against the placement
/// registry (display or CLI spelling).  Unknown names abort with the list of
/// registered spellings — the single source of truth for every bench flag.
inline std::vector<HeuristicKind> parse_heuristic_list(
    const std::string& csv) {
  std::vector<HeuristicKind> kinds;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string token = csv.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) continue;
    const PlacementStrategy* s = strategy_by_name(token);
    if (s == nullptr) {
      std::fprintf(stderr, "unknown heuristic '%s'; registered:\n",
                   token.c_str());
      for (const PlacementStrategy& reg : placement_registry()) {
        std::fprintf(stderr, "  %-22s (--heuristics=%s)\n", reg.name,
                     reg.cli_name);
      }
      std::exit(2);
    }
    // Dedupe, keeping first-mention order: a repeated name would otherwise
    // double-count every run into the same sweep cell.
    if (std::find(kinds.begin(), kinds.end(), s->kind) == kinds.end()) {
      kinds.push_back(s->kind);
    }
  }
  return kinds;
}

/// Parses the standard flags (--reps --seed --csv --threads --heuristics).
/// `own_flags` names the bench's own flags, read later from
/// BenchFlags::args; any other option is a usage error (exit 2), so a
/// mistyped flag cannot silently fall back to its default.
/// `accepts_heuristics = false` is for benches with a fixed strategy set
/// (ablations, ILP comparison, ...): they reject --heuristics outright
/// rather than silently ignoring it.
inline BenchFlags parse_flags(int argc, char** argv,
                              std::vector<std::string> own_flags = {},
                              int default_reps = 20,
                              bool accepts_heuristics = true) {
  CliArgs args(argc, argv);
  own_flags.insert(own_flags.end(),
                   {"reps", "seed", "csv", "threads", "heuristics"});
  const std::vector<std::string> unknown = args.unknown(own_flags);
  for (const std::string& name : unknown) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", args.program().c_str(),
                 name.c_str());
  }
  if (!unknown.empty()) std::exit(2);
  const int repetitions = static_cast<int>(args.get_int("reps", default_reps));
  const std::uint64_t seed = args.get_u64("seed", 42);
  std::string csv_path = args.get("csv", "");
  const int threads = static_cast<int>(args.get_int("threads", 0));
  const std::string heuristics_csv = args.get("heuristics", "");
  if (!heuristics_csv.empty() && !accepts_heuristics) {
    std::fprintf(stderr,
                 "%s runs a fixed strategy set and does not support "
                 "--heuristics\n",
                 args.program().c_str());
    std::exit(2);
  }
  return BenchFlags{std::move(args), repetitions, seed, std::move(csv_path),
                    threads, parse_heuristic_list(heuristics_csv)};
}

/// Pre-wired sweep spec: repetitions, seed, thread count, and the heuristic
/// selection come from the standard flags so every bench binary is parallel
/// and registry-filterable by default.
inline SweepSpec make_sweep_spec(const BenchFlags& flags) {
  SweepSpec spec;
  spec.repetitions = flags.repetitions;
  spec.base_seed = flags.seed;
  spec.num_threads = flags.threads;
  spec.heuristics = flags.heuristics;
  return spec;
}

inline void report(const SweepResult& result, const std::string& title,
                   const std::string& paper_expectation,
                   const std::string& csv_path) {
  std::printf("%s\n%s\n", title.c_str(),
              std::string(title.size(), '=').c_str());
  std::printf("paper-reported shape: %s\n\n", paper_expectation.c_str());
  std::printf("mean platform cost ($):\n%s\n",
              format_cost_table(result).c_str());
  std::printf("mean processor count:\n%s\n",
              format_processor_table(result).c_str());
  std::printf("failure rate:\n%s\n", format_failure_table(result).c_str());
  std::printf("%s\n", format_cost_chart(result, title).c_str());
  if (!csv_path.empty()) {
    write_sweep_csv(result, csv_path);
    std::printf("csv written to %s\n", csv_path.c_str());
  }
}

/// Writes a bench's BENCH_*.json artifact, stamped with this host
/// (host_stamp).  A file that cannot be opened,
/// written or closed is fatal: the path and the reason go to stderr and the
/// bench exits 1, so "json written to" only ever names a complete file.
inline void emit_json(JsonArtifact artifact, const std::string& path) {
  artifact.host = host_stamp();
  if (!write_json_artifact(artifact, path)) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::printf("json written to %s\n", path.c_str());
}

} // namespace insp::benchx
