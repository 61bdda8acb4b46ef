#include "harness/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace insp {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  assert(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  assert(n_ > 0);
  return max_;
}

void SampleSet::add(double x) {
  xs_.push_back(x);
  sorted_.insert(std::upper_bound(sorted_.begin(), sorted_.end(), x), x);
}

double SampleSet::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double SampleSet::stddev() const {
  if (xs_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (double x : xs_) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs_.size() - 1));
}

double SampleSet::min() const {
  assert(!xs_.empty());
  return sorted_.front();
}

double SampleSet::max() const {
  assert(!xs_.empty());
  return sorted_.back();
}

double SampleSet::percentile(double p) const {
  assert(!xs_.empty());
  if (sorted_.size() == 1) return sorted_[0];
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

} // namespace insp
