// Shared plumbing of the repository benchmark: run options, the result every
// workload fills (metrics by name with their unit, correctness verdict,
// attempted/failed operation counts), percentile helpers, and the span
// recorder used by traced runs.
//
// Spans are recorded only around calls into the public functions of the
// layers (core, sim, dynamic, service) from the benchmark's own code; the
// program itself is not instrumented.  Every timed (--trace 0) run records
// nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Deterministic sub-seed `salt` of the workload seed: every input a run
/// builds is a pure function of (--seed, salt).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + salt;
  return insp::splitmix64(state);
}

enum class Size { Full, Smoke };

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  std::string trace_out;  ///< span dump path; empty = do not write
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;  ///< correctness failures, by cause
  std::vector<std::string> notes;       ///< printed as `# ` lines

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness mismatch unless `ok`.
  void expect(bool ok, const std::string& what) {
    if (!ok) mismatches.push_back(what);
  }
  bool correct() const { return mismatches.empty(); }
};

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample;
/// 0 for an empty sample.  Sorts a copy.
double percentile(std::vector<double> xs, double p);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Wall time of one call to `fn`, in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Median of the durations of `reps` calls to `fn` (seconds) — set-up cost
/// is measured several times per run so one slow repetition does not set it.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(timed(fn));
  return percentile(t, 50.0);
}

/// Host-speed calibration.  On a shared host the same work ran up to 1.6x
/// slower for minutes at a time, with no steal time reported (a busy
/// neighbour on the same physical core).  `replay` and `plan` therefore
/// time a fixed loop of the benchmark's own, never the program's, between
/// their units of work (on the CPU they are pinned to), and scale each
/// pass's timings to a reference speed: a duration t is reported as
/// t * kCalibrationRefS / c, where c is the pass's median loop time.  No
/// change to the program can move c.
class Calibration {
 public:
  /// Times the calibration loop once.
  void sample();
  /// kCalibrationRefS / (median loop time): multiply durations by it,
  /// divide rates by it.
  double factor() const;

 private:
  std::vector<double> samples_;
};

/// Pins the calling thread to the `n` CPUs, among those the process
/// started with, on which the calibration loop runs fastest right now.  On
/// a shared host each vCPU slows by up to 1.6x while a neighbour is busy on
/// the same physical core, and which vCPU that is changes within a minute,
/// so the single-threaded workloads re-pick before every pass.  Threads the
/// caller starts while pinned inherit the pin: `service` pins around
/// AllocationService::start() so that its workers get the quietest CPUs.
void pin_to_quietest_cpus(int n);
/// Restores the CPUs the process started with.
void unpin();

/// Set-up repetitions per run; their median is reported as `setup_s`.
constexpr int kSetupReps = 11;

/// Calls `pass(index)` over the fixed input set at least once, and again
/// while another pass is expected to end within `seconds` (plus half a
/// pass), so a run measures about `seconds` whatever one pass costs.
template <typename Fn>
void run_passes(double seconds, Fn&& pass) {
  const auto start = Clock::now();
  double last = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = seconds_between(start, Clock::now());
    if (i > 0 && elapsed + last / 2.0 >= seconds) break;
    last = timed([&] { pass(i); });
  }
}

// ---------------------------------------------------------------------------
// Tracing.

struct Span {
  const char* name = "";  ///< static string: "<layer>.<function>"
  int id = 0;
  int parent = -1;        ///< enclosing span id, -1 for a root span
  int thread = 0;
  double start_s = 0.0;   ///< seconds since the recorder's epoch
  double end_s = 0.0;
  double duration() const { return end_s - start_s; }
};

/// One thread's span buffer.  Not thread-safe: every thread that records
/// owns its own log, and the logs are merged after the threads are joined.
/// A disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  SpanLog(bool enabled, int thread, Clock::time_point epoch)
      : enabled_(enabled), thread_(thread), epoch_(epoch) {}

  /// Opens a span nested in the innermost open one; returns its id (-1
  /// when disabled).
  int begin(const char* name);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

 private:
  bool enabled_;
  int thread_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< ids of open spans, innermost last
};

/// Tracing overhead of a traced run's fixed work.  When enabled, each unit
/// of work also runs untraced, before or after its traced run in
/// alternating order, so that slow drift of the host cancels out.
class OverheadMeter {
 public:
  explicit OverheadMeter(bool enabled) : enabled_(enabled) {}

  template <typename Traced, typename Untraced>
  void run(Traced&& traced, Untraced&& untraced) {
    const bool untraced_first = enabled_ && units_++ % 2 == 0;
    if (untraced_first) untraced_s_ += timed(untraced);
    traced_s_ += timed(traced);
    if (enabled_ && !untraced_first) untraced_s_ += timed(untraced);
  }

  /// Adds `trace.overhead_frac` (traced time / untraced time - 1).
  void report(Result& out) const;

 private:
  bool enabled_;
  long long units_ = 0;
  double traced_s_ = 0.0;
  double untraced_s_ = 0.0;
};

/// Every span of a traced run, merged from the per-thread logs.
struct Trace {
  std::vector<Span> spans;
  void merge(const SpanLog& log);
  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const char* name) const;
  double busy_s(const char* name) const;
  /// Writes every span as one JSON object per line.
  bool write(const std::string& path, const std::string& header) const;
};

// ---------------------------------------------------------------------------
// Workloads.  Each adds its end-to-end metrics (untraced run) or its layer
// metrics (traced run) to `out`.

void run_replay(const RunOptions& opt, Result& out);
void run_service(const RunOptions& opt, Result& out);
void run_plan(const RunOptions& opt, Result& out);

/// Traced breakdowns: each records spans into `trace` and adds the layer
/// metrics of the layers its workload drives.  With `overhead`, the same
/// fixed work also runs once untraced first, and `trace.overhead_frac`
/// (traced wall / untraced wall - 1) is added.
void trace_replay(const RunOptions& opt, bool overhead, Trace& trace,
                  Result& out);
void trace_service(const RunOptions& opt, bool overhead, Trace& trace,
                   Result& out);
void trace_plan(const RunOptions& opt, bool overhead, Trace& trace,
                Result& out);

}  // namespace pb
