// `replay` workload: one thread replays seeded dynamic worlds (the largest
// bench_dynamic scale, N = 400 operators over 6 applications) event by
// event, with every repaired allocation validated by the discrete-event
// simulator on one validation thread.  The simulator does nearly all the
// work here, so this is where a faster `sim` must show.
//
// Timed run: `replay_trace` (the public entry point) over the fixed world
// set, repeated until the time budget is spent; throughput is the best
// pass, and the repair percentiles are over each event's fastest pass.
// Traced run: the same
// replay composed from its public pieces — DynamicAllocator::apply per
// event, then simulate_allocation per snapshot — so apply and simulate get
// their own spans; its signature must equal replay_trace's.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_support/dynamic_world.hpp"
#include "dynamic/replay_signature.hpp"
#include "dynamic/scenario_engine.hpp"
#include "perfbench.hpp"
#include "sim/event_sim.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

using insp::benchx::DynamicWorld;

struct ReplayShape {
  int worlds;
  insp::benchx::DynamicWorldScale scale;
};

ReplayShape replay_shape(Size size) {
  if (size == Size::Smoke) return {2, {40, 2, 20}};
  return {80, {400, 6, 25}};
}

std::uint64_t world_seed(std::uint64_t seed, int k) {
  return derive_seed(seed, 1000 + static_cast<std::uint64_t>(k));
}

std::vector<DynamicWorld> make_worlds(std::uint64_t seed,
                                      const ReplayShape& shape) {
  std::vector<DynamicWorld> worlds;
  for (int k = 0; k < shape.worlds; ++k) {
    worlds.push_back(
        insp::benchx::make_dynamic_world(world_seed(seed, k), shape.scale));
  }
  return worlds;
}

insp::ScenarioOptions scenario_options(std::uint64_t seed, int k) {
  insp::ScenarioOptions so;
  so.seed = world_seed(seed, k) ^ 0x5eedull;
  so.simulate = true;
  so.num_threads = 1;
  return so;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The simulator's input for one event: the replay_trace snapshot.
struct SimInput {
  std::size_t event = 0;
  insp::OperatorTree forest;
  insp::Allocation allocation;
  std::vector<bool> servers_up;
  insp::SimPlatformView view;
};

/// Folded demands equal: same operators, same edges, same work and volumes,
/// same object catalog (rates change with ObjectRateChange events).
bool same_demands(const insp::OperatorTree& a, const insp::OperatorTree& b) {
  if (a.num_operators() != b.num_operators() ||
      a.num_leaves() != b.num_leaves()) {
    return false;
  }
  for (int i = 0; i < a.num_operators(); ++i) {
    const insp::OperatorNode& x = a.op(i);
    const insp::OperatorNode& y = b.op(i);
    if (x.work != y.work || x.output_mb != y.output_mb ||
        x.children != y.children || x.leaves != y.leaves ||
        x.out.size() != y.out.size()) {
      return false;
    }
    for (std::size_t e = 0; e < x.out.size(); ++e) {
      if (x.out[e].dst != y.out[e].dst || x.out[e].delta != y.out[e].delta) {
        return false;
      }
    }
  }
  for (int l = 0; l < a.num_leaves(); ++l) {
    if (a.leaf(l).object_type != b.leaf(l).object_type) return false;
  }
  const auto& ta = a.catalog().all();
  const auto& tb = b.catalog().all();
  if (ta.size() != tb.size()) return false;
  for (std::size_t t = 0; t < ta.size(); ++t) {
    if (ta[t].size_mb != tb[t].size_mb || ta[t].freq_hz != tb[t].freq_hz) {
      return false;
    }
  }
  return true;
}

/// What the traced replay of one world measured.
struct ComposedReplay {
  std::uint64_t signature = 0;
  int simulated = 0;
  int sustained = 0;
  int identical_inputs = 0;  ///< snapshots equal to the previous event's
  int fallbacks = 0;
  int ops_moved = 0;
  double fallback_apply_s = 0.0;
  std::vector<double> warmup_periods;
  std::vector<double> first_output_periods;
};

/// replay_trace rebuilt from public calls, with a span around each.  The
/// signature is mixed exactly as replay_trace mixes it.
ComposedReplay composed_replay(const DynamicWorld& w,
                               const insp::ScenarioOptions& so, SpanLog& log) {
  SpanLog::Scope world(log, "bench.replay_world");
  ComposedReplay r;
  insp::DynamicAllocator engine(w.apps, w.platform, w.catalog, so.repair);
  {
    SpanLog::Scope s(log, "dynamic.initialize");
    engine.initialize(so.seed);
  }
  insp::ReplaySignature sig;
  std::vector<SimInput> inputs;
  for (std::size_t i = 0; i < w.trace.events.size(); ++i) {
    const insp::WorkloadEvent& ev = w.trace.events[i];
    const auto t0 = Clock::now();
    insp::RepairReport rep;
    {
      SpanLog::Scope s(log, "dynamic.apply");
      rep = engine.apply(ev, w.trace);
    }
    if (rep.used_fallback) {
      ++r.fallbacks;
      r.fallback_apply_s += seconds_between(t0, Clock::now());
    }
    r.ops_moved += rep.ops_moved;
    sig.mix_repair(ev.kind, rep, engine.allocation().num_processors());
    if (rep.success && engine.num_live_apps() > 0) {
      inputs.push_back(SimInput{
          i, engine.forest(), engine.allocation(), engine.servers_up(),
          insp::SimPlatformView::degraded(engine.platform(),
                                          engine.servers_up())});
    }
  }
  sig.mix_allocation(engine.allocation());
  r.signature = sig.h;

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const SimInput& in = inputs[k];
    if (k > 0 && inputs[k - 1].event + 1 == in.event &&
        inputs[k - 1].allocation == in.allocation &&
        inputs[k - 1].servers_up == in.servers_up &&
        same_demands(inputs[k - 1].forest, in.forest)) {
      ++r.identical_inputs;
    }
    insp::Problem prob;
    prob.tree = &in.forest;
    prob.platform = &w.platform;
    prob.catalog = &w.catalog;
    prob.rho = 1.0;
    insp::EventSimResult sim;
    {
      SpanLog::Scope s(log, "sim.simulate_allocation");
      sim = insp::simulate_allocation(prob, in.allocation, in.view, so.sim);
    }
    ++r.simulated;
    if (sim.sustained) ++r.sustained;
    r.warmup_periods.push_back(sim.warmup_periods_used);
    r.first_output_periods.push_back(sim.first_output_period);
  }
  return r;
}

}  // namespace

void run_replay(const RunOptions& opt, Result& out) {
  const ReplayShape shape = replay_shape(opt.size);
  std::vector<DynamicWorld> worlds;
  // Set-up: build the worlds and each world's initial from-scratch
  // allocation (what replay_trace does before its first event).
  pin_to_quietest_cpus(1);
  const double setup_s = median_seconds(kSetupReps, [&] {
    worlds = make_worlds(opt.seed, shape);
    for (std::size_t k = 0; k < worlds.size(); ++k) {
      const DynamicWorld& w = worlds[k];
      const insp::ScenarioOptions so =
          scenario_options(opt.seed, static_cast<int>(k));
      insp::DynamicAllocator engine(w.apps, w.platform, w.catalog, so.repair);
      engine.initialize(so.seed);
    }
  });
  Calibration setup_cal;
  for (int i = 0; i < kSetupReps; ++i) setup_cal.sample();

  std::vector<std::uint64_t> signatures(worlds.size(), 0);
  std::vector<std::vector<double>> best_s(worlds.size());
  double best_rate = 0.0;
  long long events = 0;
  double cost_sum = 0.0;
  long long cost_events = 0;
  std::vector<double> factors;
  run_passes(opt.seconds, [&](int pass) {
    pin_to_quietest_cpus(1);
    Calibration cal;
    std::vector<std::vector<double>> pass_s(worlds.size());
    double pass_wall = 0.0;
    long long pass_events = 0;
    for (std::size_t k = 0; k < worlds.size(); ++k) {
      const DynamicWorld& w = worlds[k];
      cal.sample();
      const auto t0 = Clock::now();
      const insp::ScenarioResult res =
          insp::replay_trace(w.apps, w.platform, w.catalog, w.trace,
                             scenario_options(opt.seed, static_cast<int>(k)));
      pass_wall += seconds_between(t0, Clock::now());
      pass_events += res.summary.events;
      for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
        const insp::EventOutcome& o = res.outcomes[i];
        pass_s[k].push_back(o.repair_seconds);
        if (!o.repair.success || (o.simulated && !o.sustained)) ++out.failed;
        if (pass == 0) {
          cost_sum += o.cost;
          ++cost_events;
        }
      }
      if (pass == 0) {
        signatures[k] = res.signature;
        out.expect(res.summary.sustained == res.summary.simulated,
                   "replay world " + std::to_string(k) + ": sustained " +
                       std::to_string(res.summary.sustained) + " != simulated " +
                       std::to_string(res.summary.simulated));
      } else {
        out.expect(res.signature == signatures[k],
                   "replay world " + std::to_string(k) +
                       ": signature changed between passes (" +
                       hex(signatures[k]) + " vs " + hex(res.signature) + ")");
      }
    }
    // Each pass is scaled by its own calibration, so a pass run while the
    // host was slow does not win the best-of below.
    const double f = cal.factor();
    factors.push_back(f);
    for (std::size_t k = 0; k < worlds.size(); ++k) {
      best_s[k].resize(pass_s[k].size(), INFINITY);
      for (std::size_t i = 0; i < pass_s[k].size(); ++i) {
        best_s[k][i] = std::min(best_s[k][i], pass_s[k][i] * f);
      }
    }
    events += pass_events;
    best_rate = std::max(best_rate,
                         static_cast<double>(pass_events) / (pass_wall * f));
  });
  out.notes.push_back("calibration factor: setup " +
                      std::to_string(setup_cal.factor()) + ", passes p50 " +
                      std::to_string(percentile(factors, 50.0)));
  out.attempted += events;
  out.add("setup_s", setup_s * setup_cal.factor(), "s");
  out.add("throughput_per_s", best_rate, "1/s");
  std::vector<double> repair_s;
  for (const std::vector<double>& b : best_s) {
    repair_s.insert(repair_s.end(), b.begin(), b.end());
  }
  out.add("p50_ms", percentile(repair_s, 50.0) * 1e3, "ms");
  out.add("p99_ms", percentile(repair_s, 99.0) * 1e3, "ms");
  out.add("cost_usd", cost_sum / static_cast<double>(cost_events), "usd");
}

void trace_replay(const RunOptions& opt, bool overhead, Trace& trace,
                  Result& out) {
  const ReplayShape shape = replay_shape(opt.size);
  const std::vector<DynamicWorld> worlds = make_worlds(opt.seed, shape);
  const auto epoch = Clock::now();
  SpanLog log(true, 0, epoch);
  SpanLog off(false, 0, epoch);
  OverheadMeter meter(overhead);
  ComposedReplay total;
  for (std::size_t k = 0; k < worlds.size(); ++k) {
    const DynamicWorld& w = worlds[k];
    const insp::ScenarioOptions so =
        scenario_options(opt.seed, static_cast<int>(k));
    ComposedReplay r;
    meter.run([&] { r = composed_replay(w, so, log); },
              [&] { composed_replay(w, so, off); });
    // Correctness: the traced composition replays exactly what the public
    // replay_trace replays.
    const insp::ScenarioResult ref =
        insp::replay_trace(w.apps, w.platform, w.catalog, w.trace, so);
    out.expect(r.signature == ref.signature,
               "traced replay world " + std::to_string(k) + " signature " +
                   hex(r.signature) + " != replay_trace " + hex(ref.signature));
    out.expect(r.sustained == r.simulated,
               "traced replay world " + std::to_string(k) +
                   ": sustained != simulated");
    out.attempted += static_cast<long long>(w.trace.events.size());
    total.simulated += r.simulated;
    total.sustained += r.sustained;
    total.identical_inputs += r.identical_inputs;
    total.fallbacks += r.fallbacks;
    total.ops_moved += r.ops_moved;
    total.fallback_apply_s += r.fallback_apply_s;
    total.warmup_periods.insert(total.warmup_periods.end(),
                                r.warmup_periods.begin(),
                                r.warmup_periods.end());
    total.first_output_periods.insert(total.first_output_periods.end(),
                                      r.first_output_periods.begin(),
                                      r.first_output_periods.end());
  }
  trace.merge(log);

  const std::vector<double> sim = trace.durations("sim.simulate_allocation");
  const std::vector<double> apply = trace.durations("dynamic.apply");
  const double sim_busy = trace.busy_s("sim.simulate_allocation");
  const double apply_busy = trace.busy_s("dynamic.apply");
  out.add("sim.calls", static_cast<double>(sim.size()), "count");
  out.add("sim.busy_s", sim_busy, "s");
  out.add("sim.p50_ms", percentile(sim, 50.0) * 1e3, "ms");
  out.add("sim.p99_ms", percentile(sim, 99.0) * 1e3, "ms");
  out.add("sim.share", sim_busy / (sim_busy + apply_busy), "ratio");
  out.add("sim.warmup_periods_p50", percentile(total.warmup_periods, 50.0),
          "periods");
  out.add("sim.first_output_period_p50",
          percentile(total.first_output_periods, 50.0), "periods");
  out.add("sim.sustained_ratio",
          static_cast<double>(total.sustained) / total.simulated, "ratio");
  out.add("sim.identical_input_ratio",
          static_cast<double>(total.identical_inputs) / total.simulated,
          "ratio");
  out.add("dynamic.apply_calls", static_cast<double>(apply.size()), "count");
  out.add("dynamic.apply_busy_s", apply_busy, "s");
  out.add("dynamic.apply_p50_ms", percentile(apply, 50.0) * 1e3, "ms");
  out.add("dynamic.apply_p99_ms", percentile(apply, 99.0) * 1e3, "ms");
  out.add("dynamic.fallbacks", total.fallbacks, "count");
  out.add("dynamic.fallback_share", total.fallback_apply_s / apply_busy,
          "ratio");
  out.add("dynamic.ops_moved", total.ops_moved, "count");
  meter.report(out);
}

}  // namespace pb
