// The parallel sweep engine must be bit-identical to the serial one: every
// task derives its RNGs purely from (base_seed, x_index, rep), and results
// are merged in serial order.  These tests compare whole SweepResults across
// thread counts, including the raw sample vectors (values AND insertion
// order), and log the serial/parallel wall-clock ratio for reference.
#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>

#include "util/thread_pool.hpp"

namespace insp {
namespace {

InstanceConfig small_cfg(double n) {
  InstanceConfig cfg;
  cfg.tree.num_operators = static_cast<int>(n);
  cfg.tree.alpha = 0.9;
  cfg.tree.num_object_types = 15;
  cfg.tree.object_size_lo = 5.0;
  cfg.tree.object_size_hi = 30.0;
  cfg.tree.download_freq = 0.5;
  cfg.servers.num_servers = 6;
  return cfg;
}

SweepSpec base_spec(int num_threads) {
  SweepSpec spec;
  spec.x_name = "N";
  spec.xs = {20, 40, 60};
  spec.repetitions = 10;
  spec.base_seed = 20090525;  // IPDPS 2009, for flavor
  spec.config_for = small_cfg;
  spec.num_threads = num_threads;
  return spec;
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.xs, b.xs);
  ASSERT_EQ(a.heuristics, b.heuristics);
  for (HeuristicKind h : a.heuristics) {
    const auto& cells_a = a.cells.at(h);
    const auto& cells_b = b.cells.at(h);
    ASSERT_EQ(cells_a.size(), cells_b.size());
    for (std::size_t i = 0; i < cells_a.size(); ++i) {
      SCOPED_TRACE(std::string(heuristic_name(h)) + " @ x index " +
                   std::to_string(i));
      EXPECT_EQ(cells_a[i].attempts, cells_b[i].attempts);
      EXPECT_EQ(cells_a[i].failures, cells_b[i].failures);
      // Raw sample vectors: exact double equality in insertion order.
      EXPECT_EQ(cells_a[i].cost.samples(), cells_b[i].cost.samples());
      EXPECT_EQ(cells_a[i].processors.samples(),
                cells_b[i].processors.samples());
    }
  }
}

TEST(SweepDeterminism, EightThreadsMatchesSerial) {
  const SweepResult serial = run_sweep(base_spec(1));
  const SweepResult parallel = run_sweep(base_spec(8));
  expect_identical(serial, parallel);
}

TEST(SweepDeterminism, AutoThreadsMatchesSerialAndLogsSpeedup) {
  using clock = std::chrono::steady_clock;

  const auto t0 = clock::now();
  const SweepResult serial = run_sweep(base_spec(1));
  const auto t1 = clock::now();
  const SweepResult parallel = run_sweep(base_spec(0));  // auto
  const auto t2 = clock::now();

  expect_identical(serial, parallel);

  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double parallel_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  std::printf("[ timing ] serial %.1f ms, parallel(auto) %.1f ms, "
              "speedup %.2fx on %u hardware threads\n",
              serial_ms, parallel_ms,
              parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0,
              ThreadPool::resolve_num_threads(0));
}

TEST(SweepDeterminism, OddThreadCountsAgree) {
  // 3 threads does not divide the 3 x 10 grid evenly per worker, exercising
  // the dynamic index-claiming path.
  expect_identical(run_sweep(base_spec(3)), run_sweep(base_spec(5)));
}

TEST(SweepDeterminism, SubsetOfHeuristicsIsStillDeterministic) {
  SweepSpec s1 = base_spec(1);
  SweepSpec s8 = base_spec(8);
  s1.heuristics = {HeuristicKind::CompGreedy, HeuristicKind::SubtreeBottomUp};
  s8.heuristics = s1.heuristics;
  expect_identical(run_sweep(s1), run_sweep(s8));
}

} // namespace
} // namespace insp
