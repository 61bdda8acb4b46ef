// Sweep driver shared by the figure benches: runs the heuristic pipelines
// over a grid of seeded paper §5 instances (bench_support/experiment.hpp)
// and aggregates costs/failures per sweep point.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_support/experiment.hpp"
#include "harness/stats.hpp"

namespace insp {

struct SweepCell {
  SampleSet cost;        ///< successful runs only (paper plots likewise)
  SampleSet processors;  ///< processor counts of successful runs
  int attempts = 0;
  int failures = 0;
  double failure_rate() const {
    return attempts == 0 ? 0.0
                         : static_cast<double>(failures) / attempts;
  }
};

struct SweepResult {
  std::string x_name;
  std::vector<double> xs;
  std::vector<HeuristicKind> heuristics;
  /// cells[h][i]: aggregate for heuristic h at xs[i].
  std::map<HeuristicKind, std::vector<SweepCell>> cells;
};

struct SweepSpec {
  std::string x_name = "x";
  std::vector<double> xs;
  /// Instance for sweep value x and repetition seed.
  std::function<InstanceConfig(double x)> config_for;
  int repetitions = 30;
  std::uint64_t base_seed = 42;
  std::vector<HeuristicKind> heuristics;  ///< empty = all six
  AllocatorOptions allocator_options;
  /// Worker threads for the (x, repetition) grid: 0 = hardware concurrency,
  /// 1 = serial.  Every task derives its RNG purely from
  /// (base_seed, x_index, rep), so the result is bit-identical for every
  /// thread count.
  int num_threads = 0;
};

SweepResult run_sweep(const SweepSpec& spec);

} // namespace insp
