// Concurrent multi-tenant allocation service study (docs/DESIGN.md §9):
// drives the sharded AllocationService with one producer (the main thread)
// blasting the shards' seeded dynamic traces, merged by (event time,
// shard), through the bounded MPMC queue, across a {worker threads} x
// {shards} x {total operators} grid, and reports event
// throughput and request latency (p50/p99: submit -> batch applied).
// Every configuration's per-shard trajectory is checked bit for bit against
// the sequential per-shard reference (service_replay.hpp): a row with
// signatures_match=false is a correctness failure and the bench exits
// non-zero.
//
// Scaling is CPU-bound repair work, so the worker-speedup gate is keyed to
// the cores the runner actually has: >= 3x from 1 -> 8 workers on >= 8
// hardware threads, >= 2x at 4 workers on >= 4, >= 1.5x at 2 workers on
// >= 2, and skipped outright on a single-core box (which serializes
// everything by construction).  The JSON records hardware_concurrency so
// readers can tell a serialized box from a scaling failure.  --smoke
// shrinks the grid to one tiny row for CI; --gate makes the gate verdict
// the process exit code (CI runs --smoke --gate on every push, so the gate
// executes on the real runner instead of existing only as prose).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_support/dynamic_world.hpp"
#include "harness/service_stream.hpp"
#include "service/allocation_service.hpp"
#include "service/service_replay.hpp"

using namespace insp;
using namespace insp::benchx;

namespace {

using Clock = std::chrono::steady_clock;

struct GridRow {
  int n_total = 0;   ///< operators across the whole deployment
  int shards = 0;
  int workers = 0;
  int events_per_shard = 0;
};

struct RowResult {
  GridRow row;
  std::uint64_t requests = 0;
  int events_applied = 0;
  int events_coalesced = 0;
  int failures = 0;
  double events_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double speedup_vs_1worker = 0.0;
  bool signatures_match = false;
};

double percentile_ms(std::vector<double>& latencies, double p) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const double idx = p / 100.0 * static_cast<double>(latencies.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, latencies.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return (latencies[lo] * (1.0 - frac) + latencies[hi] * frac) * 1e3;
}

/// Per-shard worlds for one (N, shards) deployment: shard i gets its own
/// platform partition, tenants, and trace, derived from a per-shard seed.
std::vector<ShardSpec> make_deployment(std::uint64_t seed, int n_total,
                                       int shards, int events_per_shard) {
  std::vector<ShardSpec> specs;
  for (int i = 0; i < shards; ++i) {
    DynamicWorld world = make_dynamic_world(
        seed + 7919ull * static_cast<std::uint64_t>(i),
        {std::max(n_total / shards, 8), 2, events_per_shard});
    specs.push_back(ShardSpec{std::move(world.apps), std::move(world.platform),
                              std::move(world.catalog),
                              std::move(world.trace)});
  }
  return specs;
}

RowResult run_row(const std::vector<ShardSpec>& specs,
                  const std::vector<RoutedEvent>& stream,
                  const std::vector<ShardReplayResult>& reference,
                  const GridRow& row, std::uint64_t seed) {
  ServiceOptions opt;
  opt.num_workers = row.workers;
  opt.queue_capacity = 1024;
  opt.seed = seed;
  AllocationService service(specs, opt);
  service.start();

  const auto t0 = Clock::now();
  for (const RoutedEvent& r : stream) service.submit(r.shard, *r.event);
  ServiceStats stats = service.finish();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  RowResult r;
  r.row = row;
  r.requests = stats.requests_submitted;
  r.events_applied = stats.events_applied;
  r.events_coalesced = stats.events_coalesced;
  r.failures = stats.failures;
  r.events_per_sec =
      wall > 0.0 ? static_cast<double>(stats.requests_submitted) / wall : 0.0;
  r.p50_ms = percentile_ms(stats.latency_seconds, 50.0);
  r.p99_ms = percentile_ms(stats.latency_seconds, 99.0);
  r.signatures_match = true;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const ShardSnapshot* snap = service.snapshot(static_cast<int>(s));
    if (snap->signature != reference[s].signature ||
        !(snap->allocation == reference[s].final_allocation)) {
      r.signatures_match = false;
    }
  }
  return r;
}

void write_json(const std::string& path, std::uint64_t seed,
                std::uint64_t hardware,
                const std::vector<RowResult>& results) {
  JsonArtifact a{"service", 1, seed};
  a.extra.add("hardware_concurrency", hardware);
  for (const RowResult& r : results) {
    a.results.push_back(JsonRow()
                            .add("num_operators", r.row.n_total)
                            .add("shards", r.row.shards)
                            .add("worker_threads", r.row.workers)
                            .add("events", r.requests)
                            .add("events_applied", r.events_applied)
                            .add("events_coalesced", r.events_coalesced)
                            .add("failures", r.failures)
                            .add("events_per_sec", r.events_per_sec, 1)
                            .add("p50_ms", r.p50_ms, 4)
                            .add("p99_ms", r.p99_ms, 4)
                            .add("speedup_vs_1worker",
                                 r.speedup_vs_1worker, 2)
                            .add("hardware_concurrency", hardware)
                            .add("signatures_match", r.signatures_match));
  }
  emit_json(a, path);
}

} // namespace

int main(int argc, char** argv) {
  const BenchFlags flags =
      parse_flags(argc, argv, {"json", "smoke", "gate"},
                  /*default_reps=*/1, /*accepts_heuristics=*/false);
  const CliArgs& args = flags.args;
  const std::string json_path = args.get("json", "BENCH_service.json");
  const bool smoke = args.get_bool("smoke", false);
  const bool gate = args.get_bool("gate", false);
  const unsigned hardware = std::thread::hardware_concurrency();

  std::vector<int> n_totals, shard_counts, worker_counts;
  int events_per_shard;
  if (smoke) {
    shard_counts = {2};
    worker_counts = {1, 2};
    // A gated smoke run times the 1 -> 2 worker speedup, so its row must be
    // long enough to rise above scheduler noise on a shared host: N=400
    // shards with 800 events each keep the 1-worker run above 100 ms.  A
    // plain smoke run just exercises the machinery.
    n_totals = {gate ? 400 : 40};
    events_per_shard = gate ? 800 : 24;
  } else {
    n_totals = {200, 400};
    shard_counts = {2, 4, 8};
    worker_counts = {1, 2, 4, 8};
    events_per_shard = 200;
  }

  std::printf("Concurrent allocation service: throughput and latency\n"
              "=====================================================\n"
              "hardware threads: %u\n\n",
              hardware);

  bool all_match = true;
  std::vector<RowResult> results;
  for (int n_total : n_totals) {
    for (int shards : shard_counts) {
      const std::vector<ShardSpec> specs =
          make_deployment(flags.seed, n_total, shards, events_per_shard);
      ServiceOptions ref_opt;
      ref_opt.seed = flags.seed;
      std::vector<ShardReplayResult> reference;
      for (std::size_t s = 0; s < specs.size(); ++s) {
        reference.push_back(
            replay_shard_sequential(specs[s], static_cast<int>(s), ref_opt));
      }
      const std::vector<RoutedEvent> stream = merged_stream(specs);
      double baseline_eps = 0.0;
      for (int workers : worker_counts) {
        GridRow row{n_total, shards, workers, events_per_shard};
        RowResult r = run_row(specs, stream, reference, row, flags.seed);
        if (workers == worker_counts.front()) baseline_eps = r.events_per_sec;
        r.speedup_vs_1worker =
            baseline_eps > 0.0 ? r.events_per_sec / baseline_eps : 0.0;
        all_match = all_match && r.signatures_match;
        results.push_back(r);
        std::printf(
            "N=%-4d shards=%d workers=%d  %9.0f events/s  p50 %7.3f ms  "
            "p99 %7.3f ms  speedup %5.2fx  %s\n",
            n_total, shards, workers, r.events_per_sec, r.p50_ms, r.p99_ms,
            r.speedup_vs_1worker,
            r.signatures_match ? "replay OK" : "REPLAY MISMATCH");
      }
      std::printf("\n");
    }
  }

  // Scaling gate, keyed off the cores this runner actually has: a box can
  // only demonstrate the parallelism it can park on hardware threads, so
  // the worker count and threshold scale down with hardware_concurrency
  // (and the gate is skipped entirely on a single-core box).
  bool gate_pass = true;
  {
    int gate_workers = 0;
    double threshold = 0.0;
    if (hardware >= 8) {
      gate_workers = 8;
      threshold = 3.0;
    } else if (hardware >= 4) {
      gate_workers = 4;
      threshold = 2.0;
    } else if (hardware >= 2) {
      gate_workers = 2;
      threshold = 1.5;
    }
    // Clamp to the grid actually run (smoke runs only {1, 2} workers) and
    // re-key the threshold to the clamped width.
    if (gate_workers > worker_counts.back()) {
      gate_workers = worker_counts.back();
      threshold = gate_workers >= 8 ? 3.0 : gate_workers >= 4 ? 2.0 : 1.5;
    }
    if (gate_workers >= 2) {
      double measured = 0.0;
      for (const RowResult& r : results) {
        if (r.row.n_total == n_totals.back() &&
            r.row.shards == shard_counts.back() &&
            r.row.workers == gate_workers) {
          measured = r.speedup_vs_1worker;
        }
      }
      gate_pass = measured >= threshold;
      std::printf("scaling gate (>= %.1fx, 1 -> %d workers, N=%d, %d shards, "
                  "%u hardware threads): %.2fx  %s%s\n",
                  threshold, gate_workers, n_totals.back(),
                  shard_counts.back(), hardware, measured,
                  gate_pass ? "PASS" : "FAIL",
                  gate ? "" : " (informational; run with --gate to enforce)");
    } else {
      std::printf("scaling gate skipped: %u hardware thread(s) cannot "
                  "demonstrate worker scaling\n",
                  hardware);
    }
  }
  if (!all_match) {
    std::fprintf(stderr,
                 "FATAL: some configuration diverged from the sequential "
                 "per-shard reference\n");
  }

  write_json(json_path, flags.seed, hardware, results);
  if (!all_match) return 1;
  if (gate && !gate_pass) return 1;
  return 0;
}
