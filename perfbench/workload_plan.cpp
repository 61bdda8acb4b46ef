// `plan` workload: one thread runs the paper's one-shot allocation pipeline
// (`allocate()`: placement, server selection, downgrade, validation) with all
// six heuristics on paper §5 instances — N in {100, 200, 400} at alpha 0.9,
// plus N = 80 at alpha 1.7, next to the feasibility cliff, where some plans
// fail.  Only `core` works here: no dynamic repair, no simulation.
//
// A plan that ends in "no valid allocation" is a correct answer, not a failed
// operation; `failed` counts only calls whose result breaks a check.
// Throughput is the best pass, and the latency percentiles are over each
// call's fastest pass.
//
// Traced run: the pipeline composed from its public phases
// (strategy_for(k).place, select_servers_*, downgrade_processors,
// check_allocation), each in a span, asserted equal to allocate().
#include <algorithm>
#include <cmath>
#include <string>

#include "bench_support/experiment.hpp"
#include "core/constraints.hpp"
#include "core/downgrade.hpp"
#include "core/placement_state.hpp"
#include "core/server_selection.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

struct PlanClass {
  int n;
  double alpha;
  int count;  ///< instances of this class per run
};

/// Why this mix: at N = 400 the Random and Object-Availability calls are
/// bimodal in time (trees of up to ~300 operators plan in a few ms, larger
/// ones in 20-300 ms), and that slow mode also slows most under a busy
/// host.  With 24 N = 400 trees it holds 0.2% of the calls, so p99 falls in
/// the dense band of N = 200 and fast N = 400 calls (~2 ms).  With 96 trees
/// p99 sat inside the slow mode and spread by 31% over ten seeds.
std::vector<PlanClass> plan_classes(Size size) {
  if (size == Size::Smoke) return {{20, 0.9, 2}, {40, 1.7, 1}};
  return {{100, 0.9, 960}, {200, 0.9, 480}, {400, 0.9, 24}, {80, 1.7, 480}};
}

/// Paper §5 instance (bench_common.hpp's paper_instance) over 15 small,
/// high-frequency object types, 6 data servers, the paper's price catalog.
/// The paper draws each tree's size uniformly from [N/2, N] ("at most N");
/// here instance i of m takes the i-th of m evenly spaced sizes over that
/// range instead (stratified, not drawn), so every seed plans the same size
/// mix and only the tree shapes vary.  Plan time rises steeply with size,
/// so a drawn mix alone moved p99 by a third from seed to seed.
insp::InstanceConfig paper_config(const PlanClass& c, int i) {
  insp::InstanceConfig cfg;
  const int lo = c.n / 2;
  cfg.tree.num_operators =
      lo + static_cast<int>((c.n - lo) * (i + 0.5) / c.count);
  cfg.tree.alpha = c.alpha;
  cfg.tree.num_object_types = 15;
  cfg.tree.object_size_lo = 5.0;
  cfg.tree.object_size_hi = 30.0;
  cfg.tree.download_freq = 0.5;
  cfg.servers.num_servers = 6;
  cfg.servers.num_object_types = 15;
  cfg.rho = 1.0;
  return cfg;
}

struct PlanInstance {
  insp::Instance instance;
  std::size_t cls;  ///< index into plan_classes()
};

std::vector<PlanInstance> make_instances(std::uint64_t seed, Size size) {
  std::vector<PlanInstance> out;
  const std::vector<PlanClass> classes = plan_classes(size);
  std::uint64_t k = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (int i = 0; i < classes[c].count; ++i, ++k) {
      out.push_back({insp::make_instance(derive_seed(seed, 3000 + k),
                                         paper_config(classes[c], i)),
                     c});
    }
  }
  return out;
}

/// Seed of the Rng one allocate() call gets (drives Random placement and
/// random server selection).
std::uint64_t call_seed(std::uint64_t seed, std::size_t instance,
                        insp::HeuristicKind h) {
  return derive_seed(derive_seed(seed, 4000 + instance),
                     static_cast<std::uint64_t>(h));
}

const std::string& place_span_name(insp::HeuristicKind h) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const insp::PlacementStrategy& s : insp::placement_registry()) {
      v.push_back(std::string("core.place.") + s.cli_name);
    }
    return v;
  }();
  return names[static_cast<std::size_t>(h)];
}

struct PhaseFailures {
  int place = 0;
  int select = 0;
  int check = 0;
};

/// allocate() rebuilt from its public phases (default options: the paper's
/// selection pairing, downgrade on, validation on), one span per phase.
insp::AllocationOutcome composed_allocate(const insp::Problem& problem,
                                          insp::HeuristicKind kind,
                                          insp::Rng& rng, SpanLog& log,
                                          PhaseFailures& fails) {
  SpanLog::Scope call(log, "bench.allocate");
  insp::AllocationOutcome out;
  const insp::PlacementStrategy& strat = insp::strategy_for(kind);
  insp::PlacementState state(problem);
  insp::PlacementOutcome placed;
  {
    SpanLog::Scope s(log, place_span_name(kind).c_str());
    placed = strat.place(state, rng);
  }
  if (!placed.success) {
    ++fails.place;
    return out;
  }
  out.allocation = state.to_allocation();
  insp::ServerSelectionResult sel;
  {
    SpanLog::Scope s(log, "core.select_servers");
    sel = strat.default_selection == insp::ServerSelectionKind::RandomChoice
              ? insp::select_servers_random(problem, out.allocation, rng)
              : insp::select_servers_three_loop(problem, out.allocation);
  }
  if (!sel.success) {
    ++fails.select;
    return out;
  }
  out.cost_before_downgrade = out.allocation.total_cost(*problem.catalog);
  {
    SpanLog::Scope s(log, "core.downgrade_processors");
    insp::downgrade_processors(problem, out.allocation);
  }
  bool ok = false;
  {
    SpanLog::Scope s(log, "core.check_allocation");
    ok = insp::check_allocation(problem, out.allocation).ok();
  }
  if (!ok) {
    ++fails.check;
    return out;
  }
  out.success = true;
  out.cost = out.allocation.total_cost(*problem.catalog);
  out.num_processors = out.allocation.num_processors();
  return out;
}

}  // namespace

void run_plan(const RunOptions& opt, Result& out) {
  std::vector<PlanInstance> instances;
  pin_to_quietest_cpus(1);
  const double setup_s = median_seconds(
      kSetupReps, [&] { instances = make_instances(opt.seed, opt.size); });
  Calibration setup_cal;
  for (int i = 0; i < kSetupReps; ++i) setup_cal.sample();
  const std::vector<insp::HeuristicKind>& heuristics = insp::all_heuristics();
  const std::size_t classes = plan_classes(opt.size).size();

  std::vector<double> first_cost(instances.size() * heuristics.size(), -1.0);
  std::vector<double> best_s(instances.size() * heuristics.size(), INFINITY);
  double best_rate = 0.0;
  double cost_sum = 0.0;
  int plans = 0;
  run_passes(opt.seconds, [&](int pass) {
    pin_to_quietest_cpus(1);
    Calibration cal;
    std::vector<double> pass_s(best_s.size());
    std::vector<double> class_s(classes, 0.0);
    std::vector<long long> class_calls(classes, 0);
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (i % 8 == 0) cal.sample();
      const insp::Problem prob = instances[i].instance.problem();
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        insp::Rng rng(call_seed(opt.seed, i, heuristics[h]));
        const auto t0 = Clock::now();
        const insp::AllocationOutcome res =
            insp::allocate(prob, heuristics[h], rng);
        const double dt = seconds_between(t0, Clock::now());
        pass_s[i * heuristics.size() + h] = dt;
        class_s[instances[i].cls] += dt;
        ++class_calls[instances[i].cls];
        ++out.attempted;
        const double cost = res.success ? res.cost : -1.0;
        double& first = first_cost[i * heuristics.size() + h];
        if (pass == 0) {
          first = cost;
          if (res.success) {
            cost_sum += res.cost;
            ++plans;
            const bool valid = insp::check_allocation(prob, res.allocation).ok();
            if (!valid) ++out.failed;
            out.expect(valid, "plan " + std::to_string(i) + "/" +
                                  insp::heuristic_name(heuristics[h]) +
                                  " fails check_allocation");
          }
        } else if (cost != first) {
          ++out.failed;
          out.expect(false, "plan " + std::to_string(i) + "/" +
                                insp::heuristic_name(heuristics[h]) +
                                " changed between passes");
        }
      }
    }
    // Geometric mean of the per-class rates: each instance class weighs the
    // same, so the N = 400 Random and Object-Availability calls (most of
    // the wall time, and its instance-to-instance spread) do not set the
    // figure alone, and a speed-up at any size shows.
    double log_rate = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      log_rate += std::log(static_cast<double>(class_calls[c]) / class_s[c]);
    }
    // Each pass is scaled by its own calibration, so a pass run while the
    // host was slow does not win the best-of.
    const double f = cal.factor();
    for (std::size_t c = 0; c < best_s.size(); ++c) {
      best_s[c] = std::min(best_s[c], pass_s[c] * f);
    }
    best_rate = std::max(best_rate, std::exp(log_rate / classes) / f);
  });
  out.expect(plans > 0, "plan: no instance produced a plan");
  out.add("setup_s", setup_s * setup_cal.factor(), "s");
  out.add("throughput_per_s", best_rate, "1/s");
  out.add("p50_ms", percentile(best_s, 50.0) * 1e3, "ms");
  out.add("p99_ms", percentile(best_s, 99.0) * 1e3, "ms");
  out.add("cost_usd", plans > 0 ? cost_sum / plans : 0.0, "usd");
}

void trace_plan(const RunOptions& opt, bool overhead, Trace& trace,
                Result& out) {
  const std::vector<PlanInstance> instances =
      make_instances(opt.seed, opt.size);
  const std::vector<insp::HeuristicKind>& heuristics = insp::all_heuristics();
  const auto epoch = Clock::now();

  // One pass of the composed pipeline over every (instance, heuristic),
  // each result checked against allocate() (outside the timing).
  SpanLog log(true, 0, epoch);
  SpanLog off(false, 0, epoch);
  PhaseFailures fails, ignored;
  OverheadMeter meter(overhead);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const insp::Problem prob = instances[i].instance.problem();
    for (insp::HeuristicKind h : heuristics) {
      insp::AllocationOutcome got;
      meter.run(
          [&] {
            insp::Rng rng(call_seed(opt.seed, i, h));
            got = composed_allocate(prob, h, rng, log, fails);
          },
          [&] {
            insp::Rng rng(call_seed(opt.seed, i, h));
            composed_allocate(prob, h, rng, off, ignored);
          });
      ++out.attempted;
      insp::Rng ref_rng(call_seed(opt.seed, i, h));
      const insp::AllocationOutcome want = insp::allocate(prob, h, ref_rng);
      const bool same =
          got.success == want.success &&
          (!got.success ||
           (got.allocation == want.allocation && got.cost == want.cost));
      out.expect(same, "plan " + std::to_string(i) + "/" +
                           insp::heuristic_name(h) +
                           ": composed pipeline != allocate()");
    }
  }
  meter.report(out);
  trace.merge(log);

  double place_busy = 0.0;
  std::vector<double> place_all;
  for (insp::HeuristicKind h : heuristics) {
    const char* name = place_span_name(h).c_str();
    const std::vector<double> d = trace.durations(name);
    place_all.insert(place_all.end(), d.begin(), d.end());
    place_busy += trace.busy_s(name);
  }
  out.add("core.place_busy_s", place_busy, "s");
  for (insp::HeuristicKind h : heuristics) {
    out.add("core.place_busy_s." +
                std::string(insp::strategy_for(h).cli_name),
            trace.busy_s(place_span_name(h).c_str()), "s");
  }
  out.add("core.place_p99_ms", percentile(place_all, 99.0) * 1e3, "ms");
  out.add("core.select_busy_s", trace.busy_s("core.select_servers"), "s");
  out.add("core.downgrade_busy_s", trace.busy_s("core.downgrade_processors"),
          "s");
  out.add("core.check_busy_s", trace.busy_s("core.check_allocation"), "s");
  out.add("core.place_failures", fails.place, "count");
  out.add("core.select_failures", fails.select, "count");
  out.add("core.check_failures", fails.check, "count");
}

}  // namespace pb
