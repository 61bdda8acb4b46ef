#include "harness/reporting.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include "harness/ascii_chart.hpp"
#include "harness/csv.hpp"

namespace insp {

char heuristic_marker(HeuristicKind kind) {
  return strategy_for(kind).marker;
}

namespace {

std::string money(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

using CellFormatter = std::string (*)(const SweepCell&);

std::string generic_table(const SweepResult& r, CellFormatter fmt) {
  std::ostringstream out;
  const int name_w = 20;
  out << std::left << std::setw(10) << r.x_name;
  for (HeuristicKind h : r.heuristics) {
    out << std::setw(name_w) << heuristic_name(h);
  }
  out << "\n";
  for (std::size_t i = 0; i < r.xs.size(); ++i) {
    std::ostringstream xv;
    xv << r.xs[i];
    out << std::setw(10) << xv.str();
    for (HeuristicKind h : r.heuristics) {
      out << std::setw(name_w) << fmt(r.cells.at(h)[i]);
    }
    out << "\n";
  }
  return out.str();
}

std::string cost_cell(const SweepCell& c) {
  if (c.cost.empty()) return "-";
  std::string s = money(c.cost.mean());
  if (c.failures > 0) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), " (%.0f%% fail)", 100.0 * c.failure_rate());
    s += buf;
  }
  return s;
}

std::string proc_cell(const SweepCell& c) {
  if (c.processors.empty()) return "-";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%.1f", c.processors.mean());
  return buf;
}

std::string fail_cell(const SweepCell& c) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%.0f%%", 100.0 * c.failure_rate());
  return buf;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

} // namespace

std::string format_cost_table(const SweepResult& result) {
  return generic_table(result, cost_cell);
}

std::string format_processor_table(const SweepResult& result) {
  return generic_table(result, proc_cell);
}

std::string format_failure_table(const SweepResult& result) {
  return generic_table(result, fail_cell);
}

std::string format_cost_chart(const SweepResult& result,
                              const std::string& title) {
  std::vector<ChartSeries> series;
  for (HeuristicKind h : result.heuristics) {
    ChartSeries s;
    s.name = heuristic_name(h);
    s.marker = heuristic_marker(h);
    const auto& cells = result.cells.at(h);
    for (std::size_t i = 0; i < result.xs.size(); ++i) {
      const double y = cells[i].cost.empty()
                           ? std::numeric_limits<double>::quiet_NaN()
                           : cells[i].cost.mean();
      s.points.emplace_back(result.xs[i], y);
    }
    series.push_back(std::move(s));
  }
  ChartOptions opt;
  opt.title = title;
  opt.x_label = result.x_name;
  opt.y_label = "mean cost ($)";
  return render_ascii_chart(series, opt);
}

void write_sweep_csv(const SweepResult& result, const std::string& path) {
  CsvWriter csv(path);
  csv.header({"x", "heuristic", "attempts", "failures", "mean_cost",
              "stddev_cost", "mean_processors"});
  for (HeuristicKind h : result.heuristics) {
    const auto& cells = result.cells.at(h);
    for (std::size_t i = 0; i < result.xs.size(); ++i) {
      const auto& c = cells[i];
      csv.cell(result.xs[i]);
      csv.cell(std::string(heuristic_name(h)));
      csv.cell(static_cast<long long>(c.attempts));
      csv.cell(static_cast<long long>(c.failures));
      if (c.cost.empty()) {
        csv.cell(std::string("")).cell(std::string("")).cell(std::string(""));
      } else {
        csv.cell(c.cost.mean());
        csv.cell(c.cost.stddev());
        csv.cell(c.processors.mean());
      }
      csv.end_row();
    }
  }
}

JsonRow& JsonRow::add(const char* key, double v, int decimals) {
  std::string text(std::snprintf(nullptr, 0, "%.*f", decimals, v), '\0');
  std::snprintf(text.data(), text.size() + 1, "%.*f", decimals, v);
  return raw(key, text);
}

JsonRow& JsonRow::add(const char* key, const std::vector<JsonRow>& table) {
  std::vector<std::string> entries;
  for (const JsonRow& row : table) {
    entries.push_back("{" + join(row.members_, ", ") + "}");
  }
  return raw(key, "[\n        " + join(entries, ",\n        ") + "\n      ]");
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

JsonRow host_stamp() {
  std::vector<std::string> isa;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  // __builtin_cpu_supports takes only a string literal.
  if (__builtin_cpu_supports("sse4.2")) isa.push_back("sse4.2");
  if (__builtin_cpu_supports("avx")) isa.push_back("avx");
  if (__builtin_cpu_supports("avx2")) isa.push_back("avx2");
  if (__builtin_cpu_supports("fma")) isa.push_back("fma");
  if (__builtin_cpu_supports("avx512f")) isa.push_back("avx512f");
  if (isa.empty()) isa.push_back("none");
#else
  isa.push_back("unknown");
#endif
  return JsonRow()
      .add("cores",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .add("isa", join(isa, " "))
      .add("compiler", INSP_COMPILER)
      .add("build_type", INSP_BUILD_TYPE)
      .add("git_sha", INSP_GIT_SHA);
}

std::string render_json_artifact(const JsonArtifact& artifact) {
  JsonRow top;
  top.add("bench", artifact.bench)
      .add("schema_version", artifact.schema_version)
      .add("seed", artifact.seed);
  if (!artifact.host.empty()) {
    top.raw("host", "{" + join(artifact.host.members_, ", ") + "}");
  }
  top.members_.insert(top.members_.end(), artifact.extra.members_.begin(),
                      artifact.extra.members_.end());
  std::vector<std::string> rows;
  for (const JsonRow& row : artifact.results) {
    rows.push_back("{\n      " + join(row.members_, ",\n      ") + "\n    }");
  }
  top.raw("results", "[\n    " + join(rows, ",\n    ") + "\n  ]");
  return "{\n  " + join(top.members_, ",\n  ") + "\n}\n";
}

bool write_json_artifact(const JsonArtifact& artifact,
                         const std::string& path) {
  const std::string text = render_json_artifact(artifact);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                       text.size();
  const int write_errno = errno;
  const bool closed = std::fclose(f) == 0;
  if (!written) errno = write_errno;
  return written && closed;
}

} // namespace insp
