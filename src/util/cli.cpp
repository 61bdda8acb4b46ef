#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace insp {

namespace {

/// A value that does not parse in full, or does not fit, is a usage error:
/// `--reps 1O` must not silently run one repetition.
[[noreturn]] void reject_value(const std::string& program,
                               const std::string& name,
                               const std::string& value,
                               const char* expected) {
  std::fprintf(stderr, "%s: --%s expects %s, got '%s'\n", program.c_str(),
               name.c_str(), expected, value.c_str());
  std::exit(2);
}

} // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      positional_.push_back(a);
      continue;
    }
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      options_[a.substr(0, eq)] = a.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[a] = argv[++i];
    } else {
      options_[a] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return options_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& def) const {
  auto it = options_.find(name);
  return it == options_.end() ? def : it->second;
}

long long CliArgs::get_int(const std::string& name, long long def) const {
  auto it = options_.find(name);
  if (it == options_.end()) return def;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) {
    reject_value(program_, name, it->second, "an integer");
  }
  return v;
}

double CliArgs::get_double(const std::string& name, double def) const {
  auto it = options_.find(name);
  if (it == options_.end()) return def;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    reject_value(program_, name, it->second, "a finite number");
  }
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  auto it = options_.find(name);
  if (it == options_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  reject_value(program_, name, v, "true/1/yes/on or false/0/no/off");
}

std::uint64_t CliArgs::get_u64(const std::string& name,
                               std::uint64_t def) const {
  auto it = options_.find(name);
  if (it == options_.end()) return def;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  // strtoull accepts a sign and wraps "-1" to the maximum; refuse both.
  if (end == s || *end != '\0' || errno == ERANGE ||
      it->second.find_first_of("+-") != std::string::npos) {
    reject_value(program_, name, it->second, "a non-negative integer");
  }
  return v;
}

std::vector<std::string> CliArgs::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : options_) {
    (void)v;
    if (std::find(known.begin(), known.end(), k) == known.end()) {
      out.push_back(k);
    }
  }
  return out;
}

} // namespace insp
