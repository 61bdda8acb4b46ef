#include "harness/sweep.hpp"

#include "util/thread_pool.hpp"

namespace insp {

SweepResult run_sweep(const SweepSpec& spec) {
  SweepResult result;
  result.x_name = spec.x_name;
  result.xs = spec.xs;
  result.heuristics =
      spec.heuristics.empty() ? all_heuristics() : spec.heuristics;
  for (HeuristicKind h : result.heuristics) {
    result.cells[h].resize(spec.xs.size());
  }

  const std::size_t num_xs = spec.xs.size();
  const std::size_t reps = spec.repetitions > 0
                               ? static_cast<std::size_t>(spec.repetitions)
                               : 0;

  // config_for is caller-supplied and not required to be thread-safe, so
  // evaluate it once per sweep point up front.
  std::vector<InstanceConfig> configs;
  configs.reserve(num_xs);
  for (double x : spec.xs) configs.push_back(spec.config_for(x));

  // One task per (x, rep) grid cell; all heuristics see the same instance,
  // like the paper's per-configuration comparisons.  Each task derives its
  // RNGs purely from (base_seed, x_index, rep) and writes to its own
  // pre-allocated slot, so the fan-out is race-free and the merged result is
  // bit-identical to the serial loop for any thread count.
  struct RunOutcome {
    bool success = false;
    double cost = 0.0;
    int num_processors = 0;
  };
  const std::size_t num_tasks = num_xs * reps;
  std::vector<std::vector<RunOutcome>> grid(num_tasks);

  ThreadPool::parallel_for(
      num_tasks,
      spec.num_threads < 0 ? 1u : static_cast<unsigned>(spec.num_threads),
      [&](std::size_t task) {
        const std::size_t xi = task / reps;
        const std::size_t rep = task % reps;
        const std::uint64_t seed =
            spec.base_seed * 1'000'003ull + xi * 7919ull + rep;
        const Instance inst = make_instance(seed, configs[xi]);
        const Problem prob = inst.problem();
        std::vector<RunOutcome>& runs = grid[task];
        runs.reserve(result.heuristics.size());
        for (HeuristicKind h : result.heuristics) {
          Rng run_rng(seed ^ (0x9e37ull + static_cast<std::uint64_t>(h)));
          const AllocationOutcome out =
              allocate(prob, h, run_rng, spec.allocator_options);
          runs.push_back({out.success, out.cost, out.num_processors});
        }
      });

  // Deterministic merge in the exact order the serial loop used, so sample
  // insertion order (and thus every SampleSet) matches bit for bit.
  for (std::size_t xi = 0; xi < num_xs; ++xi) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::vector<RunOutcome>& runs = grid[xi * reps + rep];
      for (std::size_t hi = 0; hi < result.heuristics.size(); ++hi) {
        SweepCell& cell = result.cells[result.heuristics[hi]][xi];
        ++cell.attempts;
        const RunOutcome& run = runs[hi];
        if (run.success) {
          cell.cost.add(run.cost);
          cell.processors.add(run.num_processors);
        } else {
          ++cell.failures;
        }
      }
    }
  }
  return result;
}

} // namespace insp
