// Repository benchmark entry point: one workload per run, timed with tracing off
// (--trace 0, end-to-end metrics) or traced (--trace 1, per-layer metrics).
// Prints every metric by name with its unit, then, as the last line, one
// JSON object {correct, attempted, failed, metrics}.  Exits 1 on any
// correctness mismatch and 2 on a usage error.  See README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "perfbench.hpp"

namespace pb {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double idx = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int SpanLog::begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.thread = thread_;
  s.start_s = seconds_between(epoch_, Clock::now());
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanLog::end(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s =
      seconds_between(epoch_, Clock::now());
  open_.pop_back();
}

namespace {

/// Loop time of the calibration kernel on the reference host when it ran
/// undisturbed (4-vCPU Xeon, GCC 12 Release build).
constexpr double kCalibrationRefS = 2.4e-4;

/// A dependent chain of loads, multiplies and float adds over a 64 KiB
/// table: the mix of latency-bound integer and floating-point work that
/// repair and simulation also do, small enough to stay in L2.
double calibration_loop() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1u << 14);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t& v : t) {
      v = static_cast<std::uint32_t>(insp::splitmix64(state));
    }
    return t;
  }();
  static volatile double sink = 0.0;
  const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
  std::uint32_t x = 1;
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 40000; ++i) {
    x = table[(x + static_cast<std::uint32_t>(i)) & mask] ^ (x * 2654435761u);
    acc += static_cast<double>(x & 1023u) * 1e-3;
  }
  const double s = seconds_between(t0, Clock::now());
  sink = sink + acc;
  return s;
}

/// The CPUs this process may run on, as it started.
const cpu_set_t& startup_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) CPU_SET(0, &s);
    return s;
  }();
  return set;
}

}  // namespace

void pin_to_quietest_cpus(int n) {
  const cpu_set_t& allowed = startup_cpus();
  std::vector<std::pair<double, int>> speed;  // (best loop time, cpu)
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    double s = INFINITY;
    for (int i = 0; i < 3; ++i) s = std::min(s, calibration_loop());
    speed.emplace_back(s, cpu);
  }
  std::sort(speed.begin(), speed.end());
  cpu_set_t chosen = allowed;
  if (!speed.empty()) {
    CPU_ZERO(&chosen);
    for (std::size_t i = 0; i < speed.size() && i < static_cast<std::size_t>(n);
         ++i) {
      CPU_SET(speed[i].second, &chosen);
    }
  }
  sched_setaffinity(0, sizeof chosen, &chosen);
}

void unpin() { sched_setaffinity(0, sizeof(cpu_set_t), &startup_cpus()); }

void Calibration::sample() { samples_.push_back(calibration_loop()); }

double Calibration::factor() const {
  return samples_.empty() ? 1.0
                          : kCalibrationRefS / percentile(samples_, 50.0);
}

void OverheadMeter::report(Result& out) const {
  if (enabled_) {
    out.add("trace.overhead_frac", traced_s_ / untraced_s_ - 1.0, "ratio");
  }
}

void Trace::merge(const SpanLog& log) {
  // Span ids are per log; shift them so ids stay unique in the merged set.
  const int base = static_cast<int>(spans.size());
  for (Span s : log.spans()) {
    s.id += base;
    if (s.parent >= 0) s.parent += base;
    spans.push_back(s);
  }
}

std::vector<double> Trace::durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.duration());
  }
  return out;
}

double Trace::busy_s(const char* name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

bool Trace::write(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,\"thread\":%d,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 s.name, s.id, s.parent, s.thread, s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace pb

namespace {

/// What a result is stamped with: the host and the build it came from.
struct Stamp {
  int nproc = 0;          ///< CPUs this process may run on
  std::string cpu_flags;  ///< feature flags as the OS reports them
  std::string git_sha;    ///< from PERFBENCH_GIT_SHA (set by run.py)
};

Stamp host_stamp() {
  Stamp s;
  cpu_set_t set;
  CPU_ZERO(&set);
  s.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[8192];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "flags", 5) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon != nullptr) {
        s.cpu_flags = colon + 1;
        s.cpu_flags.erase(0, s.cpu_flags.find_first_not_of(' '));
        s.cpu_flags.erase(s.cpu_flags.find_last_not_of(" \n") + 1);
      }
      break;
    }
    std::fclose(f);
  }
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  s.git_sha = sha != nullptr && *sha != '\0' ? sha : "unknown";
  return s;
}

/// The name each end-to-end metric has in the benchmark's docs for one
/// workload (replay_events_per_s, svc_p99_ms, ...); the JSON result uses
/// the workload-neutral name so every workload reports the same keys.
std::string doc_name(const std::string& workload, const std::string& metric) {
  const char* prefix = workload == "replay"    ? "replay_"
                       : workload == "service" ? "svc_"
                                               : "plan_";
  if (metric == "throughput_per_s") {
    return workload == "replay"    ? "replay_events_per_s"
           : workload == "service" ? "svc_max_rps"
                                   : "plan_per_s";
  }
  if (workload == "replay" && (metric == "p50_ms" || metric == "p99_ms")) {
    return "replay_repair_" + metric;
  }
  if (metric == "p50_ms" || metric == "p99_ms" || metric == "cost_usd") {
    return prefix + metric;
  }
  return metric;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload replay|service|plan --seed N "
               "--seconds S --trace 0|1 [--size full|smoke] "
               "[--trace-out PATH]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-') {
    usage((flag + " wants a non-negative integer").c_str());
  }
  return x;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunOptions opt;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(flag, v);
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      opt.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") usage("--trace must be 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (flag == "--size") {
      const std::string s = v;
      if (s == "full") {
        opt.size = pb::Size::Full;
      } else if (s == "smoke") {
        opt.size = pb::Size::Smoke;
      } else {
        usage("--size must be full or smoke");
      }
    } else if (flag == "--trace-out") {
      opt.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (workload != "replay" && workload != "service" && workload != "plan") {
    usage(("unknown workload " + workload).c_str());
  }

  const Stamp stamp = host_stamp();
  pb::Result result;
  try {
    if (!opt.trace) {
      if (workload == "replay") pb::run_replay(opt, result);
      if (workload == "service") pb::run_service(opt, result);
      if (workload == "plan") pb::run_plan(opt, result);
      result.add("peak_rss_mb", pb::peak_rss_mb(), "MB");
    } else {
      // A traced run measures every layer on the workload that drives it
      // (sim and dynamic on replay, service on service, core on plan),
      // whichever workload is named; the named workload also runs its fixed
      // work untraced once, for the tracing overhead.
      pb::Trace trace;
      pb::trace_replay(opt, workload == "replay", trace, result);
      pb::trace_service(opt, workload == "service", trace, result);
      pb::trace_plan(opt, workload == "plan", trace, result);
      result.add("trace.spans", static_cast<double>(trace.spans.size()),
                 "count");
      if (!opt.trace_out.empty()) {
        const std::string header =
            "{\"workload\":\"" + workload + "\",\"seed\":" +
            std::to_string(opt.seed) +
            ",\"nproc\":" + std::to_string(stamp.nproc) +
            ",\"cpu_flags\":\"" + stamp.cpu_flags +
            "\",\"compiler\":\"" PERFBENCH_COMPILER
            "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"git_sha\":\"" +
            stamp.git_sha + "\"}";
        if (!trace.write(opt.trace_out, header)) {
          std::fprintf(stderr, "perfbench: cannot write %s\n",
                       opt.trace_out.c_str());
        }
      }
    }
  } catch (const std::exception& e) {
    result.mismatches.push_back(std::string("exception: ") + e.what());
  }

  std::printf("# perfbench workload=%s seed=%llu trace=%d size=%s\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, opt.size == pb::Size::Smoke ? "smoke" : "full");
  std::printf("# build compiler=\"%s\" build_type=%s git_sha=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, stamp.git_sha.c_str());
  std::printf("# host nproc=%d cpu_flags=\"%s\"\n", stamp.nproc,
              stamp.cpu_flags.c_str());
  for (const std::string& n : result.notes) std::printf("# %s\n", n.c_str());
  for (const pb::Metric& m : result.metrics) {
    const std::string alias = doc_name(workload, m.name);
    std::printf("%-36s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), alias == m.name ? "" : alias.c_str());
  }
  // fail_frac is carried by the result's attempted/failed counts rather
  // than as a metric: on these workloads it is 0, and a metric must not be.
  std::printf("%-36s %16.6f %-6s failed %lld of %lld\n", "fail_frac",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max(result.attempted, 1LL)),
              "ratio", result.failed, result.attempted);
  for (const std::string& m : result.mismatches) {
    std::printf("MISMATCH: %s\n", m.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              std::max(result.attempted, 1LL), result.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const pb::Metric& m = result.metrics[i];
    if (i > 0) std::printf(", ");
    print_json_string(m.name);
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf(": {\"value\": %.17g, \"unit\": ", v);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
