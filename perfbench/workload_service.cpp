// `service` workload: the sharded AllocationService under an open-loop
// request stream.  One process, four threads: one producer submitting a
// single merged stream over 4 shards on a fixed schedule, 2 service workers,
// and 1 reader polling snapshot() at a fixed rate.  No simulation: dynamic
// repair plus the service's queueing, epoch batching and snapshot
// publishing do all the work.
//
// Open-loop discipline: request k is due at start + k / rate whatever the
// service does; its latency runs from that due time to the publish of the
// first snapshot that contains it (service latency from enqueue, plus how
// late the producer called submit).  The reference for correctness is
// replay_shard_sequential over each shard's stream.
//
// Timed run: rounds of one run at the nominal rate (its latencies are
// pooled for p50/p99) and two blast runs (every request due at once; the
// stream size over the time to drain it is one capacity sample), repeated
// until the time budget is spent.  Throughput is the best capacity sample:
// on a shared host one blast in four drained at half speed, and the best
// one is the service's own capacity.  A fixed rate ladder was tried first
// and dropped: its answer is quantized to the ladder steps, so it read the
// same top step on every run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench_support/dynamic_world.hpp"
#include "perfbench.hpp"
#include "service/allocation_service.hpp"
#include "service/batch_planner.hpp"
#include "service/service_replay.hpp"

namespace pb {

namespace {

struct ServiceShape {
  int shards;
  int workers;
  insp::benchx::DynamicWorldScale shard_scale;  ///< events = per-shard stream
  double nominal_rps;
  double reads_per_s;
};

ServiceShape service_shape(Size size) {
  if (size == Size::Smoke) return {2, 2, {40, 2, 60}, 400.0, 100.0};
  return {4, 2, {400, 6, 2000}, 2000.0, 500.0};
}

/// Open-loop validity: a nominal run whose producer was this late at p99
/// measured the generator, not the service, and is flagged invalid.
constexpr double kLateP99LimitS = 0.010;
constexpr double kBlast = INFINITY;

struct Request {
  int shard = 0;
  int index_in_shard = 0;
  const insp::WorkloadEvent* event = nullptr;
};

struct Deployment {
  std::vector<insp::ShardSpec> specs;
  std::vector<Request> stream;  ///< merged by (event time, shard)
};

Deployment make_deployment(std::uint64_t seed, const ServiceShape& shape) {
  Deployment d;
  for (int s = 0; s < shape.shards; ++s) {
    insp::benchx::DynamicWorld w = insp::benchx::make_dynamic_world(
        derive_seed(seed, 2000 + static_cast<std::uint64_t>(s)),
        shape.shard_scale);
    d.specs.push_back(insp::ShardSpec{std::move(w.apps), std::move(w.platform),
                                      std::move(w.catalog),
                                      std::move(w.trace)});
  }
  for (int s = 0; s < shape.shards; ++s) {
    const auto& events = d.specs[static_cast<std::size_t>(s)].trace.events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      d.stream.push_back({s, static_cast<int>(i), &events[i]});
    }
  }
  std::stable_sort(d.stream.begin(), d.stream.end(),
                   [](const Request& a, const Request& b) {
                     if (a.event->time != b.event->time) {
                       return a.event->time < b.event->time;
                     }
                     return a.shard < b.shard;
                   });
  return d;
}

insp::ServiceOptions service_options(std::uint64_t seed,
                                     const ServiceShape& shape,
                                     std::size_t requests) {
  insp::ServiceOptions so;
  so.num_workers = shape.workers;
  // Room for the whole stream: submit() never blocks, so the producer's
  // lateness is its own and never the service's backpressure.
  so.queue_capacity = requests + 16;
  so.seed = seed;
  return so;
}

/// Raw record of one open-loop run.
struct RunRecord {
  std::vector<double> latency_s;  ///< due -> visible, per request
  std::vector<double> late_s;     ///< submit call time - due time
  std::vector<double> block_s;    ///< time inside submit()
  std::vector<double> lag;        ///< reader: submitted - visible, per read
  long long reads = 0;
  double drain_s = 0.0;  ///< last submit return -> finish() returned
  double wall_s = 0.0;   ///< first due time -> finish() returned
  int events_applied = 0;
  int events_coalesced = 0;
  bool matches_reference = true;
};

RunRecord open_loop_run(const Deployment& d, const ServiceShape& shape,
                        std::uint64_t seed, double rate,
                        const std::vector<insp::ShardReplayResult>& reference,
                        SpanLog& producer_log, SpanLog& reader_log) {
  const std::size_t n = d.stream.size();
  RunRecord rec;
  rec.latency_s.resize(n);
  rec.late_s.resize(n);
  rec.block_s.resize(n);
  SpanLog::Scope run(producer_log, "bench.open_loop_run");
  insp::AllocationService svc(d.specs, service_options(seed, shape, n));
  pin_to_quietest_cpus(shape.workers);  // the workers inherit this pin
  {
    SpanLog::Scope s(producer_log, "service.start");
    svc.start();
  }
  unpin();

  std::vector<std::atomic<long long>> submitted(d.specs.size());
  std::atomic<bool> stop{false};
  // The reader: rate-limited snapshot() polling, round robin over shards.
  std::thread reader([&] {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / shape.reads_per_s));
    auto next = Clock::now();
    int shard = 0;
    while (!stop.load(std::memory_order_acquire)) {
      next += period;
      std::this_thread::sleep_until(next);
      const long long sub =
          submitted[static_cast<std::size_t>(shard)].load(
              std::memory_order_acquire);
      const insp::ShardSnapshot* snap = nullptr;
      {
        SpanLog::Scope s(reader_log, "service.snapshot");
        snap = svc.snapshot(shard);
      }
      const long long visible = snap->events_applied + snap->events_coalesced;
      rec.lag.push_back(static_cast<double>(std::max(0LL, sub - visible)));
      ++rec.reads;
      shard = (shard + 1) % svc.num_shards();
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(1);
  auto last_return = start;
  for (std::size_t k = 0; k < n; ++k) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(k) / rate));
    std::this_thread::sleep_until(due);
    const Request& r = d.stream[k];
    const auto t_call = Clock::now();
    {
      SpanLog::Scope s(producer_log, "service.submit");
      svc.submit(r.shard, *r.event);
    }
    last_return = Clock::now();
    submitted[static_cast<std::size_t>(r.shard)].fetch_add(
        1, std::memory_order_release);
    rec.late_s[k] = seconds_between(due, t_call);
    rec.block_s[k] = seconds_between(t_call, last_return);
  }
  insp::ServiceStats stats;
  {
    SpanLog::Scope s(producer_log, "service.finish");
    stats = svc.finish();
  }
  const auto done = Clock::now();
  rec.drain_s = seconds_between(last_return, done);
  rec.wall_s = seconds_between(start, done);
  stop.store(true, std::memory_order_release);
  reader.join();

  // stats.latency_seconds: enqueue -> publish, per shard in submission
  // order, shards concatenated.
  std::vector<std::size_t> offset(d.specs.size() + 1, 0);
  for (std::size_t s = 0; s < d.specs.size(); ++s) {
    offset[s + 1] = offset[s] + d.specs[s].trace.events.size();
  }
  for (std::size_t k = 0; k < n; ++k) {
    const Request& r = d.stream[k];
    rec.latency_s[k] =
        rec.late_s[k] +
        stats.latency_seconds[offset[static_cast<std::size_t>(r.shard)] +
                              static_cast<std::size_t>(r.index_in_shard)];
  }
  rec.events_applied = stats.events_applied;
  rec.events_coalesced = stats.events_coalesced;
  for (std::size_t s = 0; s < d.specs.size(); ++s) {
    const insp::ShardSnapshot* snap = svc.snapshot(static_cast<int>(s));
    if (snap->signature != reference[s].signature ||
        !(snap->allocation == reference[s].final_allocation)) {
      rec.matches_reference = false;
    }
  }
  return rec;
}

std::vector<insp::ShardReplayResult> sequential_reference(
    const Deployment& d, const ServiceShape& shape, std::uint64_t seed,
    SpanLog& log) {
  std::vector<insp::ShardReplayResult> ref;
  const insp::ServiceOptions so = service_options(seed, shape, d.stream.size());
  for (std::size_t s = 0; s < d.specs.size(); ++s) {
    SpanLog::Scope span(log, "service.replay_shard_sequential");
    ref.push_back(
        insp::replay_shard_sequential(d.specs[s], static_cast<int>(s), so));
  }
  return ref;
}

void check_run(const RunRecord& r, double rate, Result& out) {
  const std::string tag =
      rate == kBlast ? std::string("service blast: ")
                     : "service @" + std::to_string(static_cast<int>(rate)) +
                           " req/s: ";
  out.expect(r.matches_reference,
             tag + "a shard's final snapshot differs from "
                   "replay_shard_sequential");
  out.attempted += static_cast<long long>(r.latency_s.size());
}

/// svc_cost_usd: the platform cost a shard's tenants pay, averaged over
/// every batch the shard applies and over the shards.  Computed by
/// replay_shard_sequential rebuilt from its public pieces (epoch_runs,
/// coalesce_batch, DynamicAllocator::apply) so the cost after each batch is
/// visible; the rebuilt replay must end on the reference's signature and
/// allocation.  A final cost alone is mostly one or two processors and
/// moved by half from seed to seed.
double service_cost(const Deployment& d, const insp::ServiceOptions& so,
                    const std::vector<insp::ShardReplayResult>& reference,
                    Result& out) {
  double sum = 0.0;
  long long batches = 0;
  for (std::size_t s = 0; s < d.specs.size(); ++s) {
    const insp::ShardSpec& spec = d.specs[s];
    insp::DynamicAllocator engine(spec.apps, spec.platform, spec.catalog,
                                  so.repair);
    engine.initialize(insp::shard_seed(so.seed, static_cast<int>(s)));
    insp::ReplaySignature sig;
    const auto& events = spec.trace.events;
    for (const auto& [first, last] :
         insp::epoch_runs(events, so.batch_window_s)) {
      const std::vector<insp::WorkloadEvent> batch(
          events.begin() + static_cast<std::ptrdiff_t>(first),
          events.begin() + static_cast<std::ptrdiff_t>(last));
      for (const insp::WorkloadEvent& ev :
           insp::coalesce_batch(batch).applied) {
        const insp::RepairReport rep = engine.apply(ev, spec.trace);
        sig.mix_repair(ev.kind, rep, engine.allocation().num_processors());
      }
      sum += engine.cost();
      ++batches;
    }
    out.expect(sig.h == reference[s].signature &&
                   engine.allocation() == reference[s].final_allocation,
               "service shard " + std::to_string(s) +
                   ": rebuilt sequential replay differs from "
                   "replay_shard_sequential");
  }
  return sum / static_cast<double>(batches);
}

/// Open-loop validity of a nominal run: its producer kept to the schedule.
bool on_schedule(const RunRecord& r) {
  return percentile(r.late_s, 99.0) <= kLateP99LimitS;
}

}  // namespace

void run_service(const RunOptions& opt, Result& out) {
  const ServiceShape shape = service_shape(opt.size);
  Deployment d;
  // Set-up: build the shard worlds and bring a service up (initial
  // from-scratch allocation of every shard) and down again.
  const double setup_s = median_seconds(kSetupReps, [&] {
    d = make_deployment(opt.seed, shape);
    insp::AllocationService svc(d.specs,
                                service_options(opt.seed, shape, 16));
    svc.start();
    svc.finish();
  });
  SpanLog off(false, 0, Clock::now());
  const std::vector<insp::ShardReplayResult> reference =
      sequential_reference(d, shape, opt.seed, off);

  const auto start = Clock::now();
  std::vector<double> latency;
  std::vector<double> capacity;
  int runs = 0, invalid = 0;
  for (; runs < 2 || seconds_between(start, Clock::now()) < opt.seconds;
       ++runs) {
    const RunRecord nominal = open_loop_run(d, shape, opt.seed,
                                            shape.nominal_rps, reference, off,
                                            off);
    check_run(nominal, shape.nominal_rps, out);
    // A nominal run whose producer fell behind its schedule measured the
    // generator (or a stalled host), not the service: it is flagged and
    // its latencies are left out.
    if (on_schedule(nominal)) {
      latency.insert(latency.end(), nominal.latency_s.begin(),
                     nominal.latency_s.end());
    } else {
      ++invalid;
      std::fprintf(stderr,
                   "perfbench: service nominal run invalid: generator late "
                   "by %.3f ms at p99\n",
                   percentile(nominal.late_s, 99.0) * 1e3);
    }
    for (int b = 0; b < 2; ++b) {
      const RunRecord blast =
          open_loop_run(d, shape, opt.seed, kBlast, reference, off, off);
      check_run(blast, kBlast, out);
      capacity.push_back(static_cast<double>(blast.latency_s.size()) /
                         blast.wall_s);
    }
  }
  out.expect(2 * invalid <= runs,
             "service: " + std::to_string(invalid) + " of " +
                 std::to_string(runs) +
                 " nominal runs fell behind schedule; run invalid");
  out.add("setup_s", setup_s, "s");
  out.add("throughput_per_s", percentile(capacity, 100.0), "1/s");
  out.add("p50_ms", percentile(latency, 50.0) * 1e3, "ms");
  out.add("p99_ms", percentile(latency, 99.0) * 1e3, "ms");
  out.add("cost_usd",
          service_cost(d, service_options(opt.seed, shape, 0), reference, out),
          "usd");
}

void trace_service(const RunOptions& opt, bool overhead, Trace& trace,
                   Result& out) {
  const ServiceShape shape = service_shape(opt.size);
  const Deployment d = make_deployment(opt.seed, shape);
  const auto epoch = Clock::now();
  SpanLog main_log(true, 0, epoch);
  const auto t_ref = Clock::now();
  const std::vector<insp::ShardReplayResult> reference =
      sequential_reference(d, shape, opt.seed, main_log);
  const double shard_replay_s = seconds_between(t_ref, Clock::now());

  SpanLog reader_log(true, 1, epoch);
  const RunRecord r = open_loop_run(d, shape, opt.seed, shape.nominal_rps,
                                    reference, main_log, reader_log);
  check_run(r, shape.nominal_rps, out);
  if (overhead) {
    // A nominal run's wall time is set by its schedule, so the overhead is
    // measured on blasts: the same stream drained as fast as it can be,
    // traced and untraced.  Blast times vary by up to 2x on a shared host
    // while the spans cost well under 1%, so this figure is mostly noise.
    SpanLog off(false, 0, epoch);
    OverheadMeter meter(true);
    for (int b = 0; b < 4; ++b) {
      SpanLog blast_log(true, 0, epoch), blast_reader(true, 1, epoch);
      meter.run(
          [&] {
            open_loop_run(d, shape, opt.seed, kBlast, reference, blast_log,
                          blast_reader);
          },
          [&] {
            open_loop_run(d, shape, opt.seed, kBlast, reference, off, off);
          });
    }
    meter.report(out);
  }
  trace.merge(main_log);
  trace.merge(reader_log);

  const std::vector<double> reads = trace.durations("service.snapshot");
  const double requests = static_cast<double>(r.latency_s.size());
  out.add("dynamic.shard_replay_busy_s", shard_replay_s, "s");
  out.add("service.submit_block_p99_ms", percentile(r.block_s, 99.0) * 1e3,
          "ms");
  out.add("service.generator_late_max_ms", percentile(r.late_s, 100.0) * 1e3,
          "ms");
  out.add("service.backlog_max", percentile(r.lag, 100.0), "count");
  out.add("service.events_applied", r.events_applied, "count");
  out.add("service.events_coalesced", r.events_coalesced, "count");
  out.add("service.coalesce_ratio", r.events_coalesced / requests, "ratio");
  out.add("service.finish_drain_s", r.drain_s, "s");
  out.add("service.snapshot_reads", static_cast<double>(r.reads), "count");
  out.add("service.snapshot_read_p99_us", percentile(reads, 99.0) * 1e6, "us");
  out.add("service.snapshot_lag_p99", percentile(r.lag, 99.0), "count");
}

}  // namespace pb
