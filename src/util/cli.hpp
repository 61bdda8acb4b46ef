// Minimal command-line option parser for bench/example binaries.
// Supports `--name value`, `--name=value`, and boolean `--flag` forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace insp {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  /// Numeric getters: a value that is malformed (`1O`, `abc`, empty) or out
  /// of range is a usage error — a message on stderr and exit code 2.
  /// get_bool likewise takes only true/1/yes/on and false/0/no/off.
  long long get_int(const std::string& name, long long def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t def) const;

  /// Non-option (positional) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }
  /// Options that were provided but never queried (typo detection).
  std::vector<std::string> unknown(const std::vector<std::string>& known) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

} // namespace insp
