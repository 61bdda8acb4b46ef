#include "harness/csv.hpp"

#include <cmath>
#include <stdexcept>

namespace insp {

CsvWriter::CsvWriter(const std::string& path) : file_(path), to_file_(true) {
  if (!file_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::CsvWriter() : to_file_(false) {}

CsvWriter::~CsvWriter() {
  if (row_started_) end_row();
}

void CsvWriter::raw(const std::string& s) {
  if (to_file_) {
    file_ << s;
  } else {
    mem_ << s;
  }
}

std::string CsvWriter::escape(const std::string& field) {
  bool needs_quotes = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::header(const std::vector<std::string>& names) {
  for (const auto& n : names) cell(n);
  end_row();
}

CsvWriter& CsvWriter::cell(const std::string& v) {
  if (row_started_) raw(",");
  raw(escape(v));
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::cell(double v) {
  std::ostringstream ss;
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    ss << static_cast<long long>(v);
  } else {
    ss.precision(10);
    ss << v;
  }
  return cell(ss.str());
}

CsvWriter& CsvWriter::cell(long long v) {
  return cell(std::to_string(v));
}

void CsvWriter::end_row() {
  raw("\n");
  row_started_ = false;
}

std::string CsvWriter::str() const { return mem_.str(); }

} // namespace insp
