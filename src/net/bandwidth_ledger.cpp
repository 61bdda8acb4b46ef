#include "net/bandwidth_ledger.hpp"

#include <algorithm>
#include <cassert>

namespace insp {

CardLedger::CardLedger(std::vector<MBps> capacities)
    : capacity_(std::move(capacities)), used_(capacity_.size(), 0.0) {}

void CardLedger::add(int r, MBps amount) {
  assert(r >= 0 && static_cast<std::size_t>(r) < used_.size());
  used_[static_cast<std::size_t>(r)] += amount;
}

void CardLedger::remove(int r, MBps amount) {
  assert(r >= 0 && static_cast<std::size_t>(r) < used_.size());
  auto& u = used_[static_cast<std::size_t>(r)];
  u -= amount;
  // Cancel rounding drift so add/remove sequences return exactly to zero.
  if (u < kCapacityEpsilon && u > -kCapacityEpsilon) u = 0.0;
  assert(u >= 0.0);
}

void CardLedger::set_capacity(int r, MBps capacity) {
  assert(r >= 0 && static_cast<std::size_t>(r) < capacity_.size());
  capacity_[static_cast<std::size_t>(r)] = capacity;
  assert(fits_within(used_[static_cast<std::size_t>(r)], capacity));
}

LinkLedger::LinkLedger(MBps uniform_capacity) : capacity_(uniform_capacity) {}

std::pair<int, int> LinkLedger::key(int a, int b) {
  return {std::min(a, b), std::max(a, b)};
}

std::vector<LinkLedger::Entry>::iterator LinkLedger::lower(
    const std::pair<int, int>& k) {
  return std::lower_bound(
      used_.begin(), used_.end(), k,
      [](const Entry& e, const std::pair<int, int>& v) { return e.first < v; });
}

std::vector<LinkLedger::Entry>::const_iterator LinkLedger::lower(
    const std::pair<int, int>& k) const {
  return std::lower_bound(
      used_.begin(), used_.end(), k,
      [](const Entry& e, const std::pair<int, int>& v) { return e.first < v; });
}

MBps LinkLedger::used(int a, int b) const {
  const auto k = key(a, b);
  auto it = lower(k);
  return it == used_.end() || it->first != k ? 0.0 : it->second;
}

void LinkLedger::add(int a, int b, MBps amount) {
  const auto k = key(a, b);
  // Single binary search: journal the prior value at the found position.
  auto it = lower(k);
  const bool existed = it != used_.end() && it->first == k;
  if (in_txn_) {
    journal_.push_back({k, existed ? it->second : 0.0, existed});
  }
  if (existed) {
    it->second += amount;
  } else {
    used_.insert(it, {k, amount});  // shifts the tail; reuses capacity
  }
}

bool LinkLedger::all_within() const {
  for (const auto& [k, v] : used_) {
    (void)k;
    if (!fits_within(v, capacity_)) return false;
  }
  return true;
}

void LinkLedger::remove(int a, int b, MBps amount) {
  const auto k = key(a, b);
  auto it = lower(k);
  assert(it != used_.end() && it->first == k);
  if (in_txn_) journal_.push_back({k, it->second, true});
  it->second -= amount;
  if (it->second < kCapacityEpsilon) {
    assert(it->second > -kCapacityEpsilon);
    used_.erase(it);
  }
}

void LinkLedger::rename_endpoint(int from, int to) {
  assert(!in_txn_);
  assert(from != to);
  renamed_.clear();
  std::erase_if(used_, [&](const Entry& e) {
    const auto [a, b] = e.first;
    if (a != from && b != from) return false;
    const int q = a == from ? b : a;
    if (q != to) renamed_.emplace_back(q, e.second);
    return true;
  });
  for (const auto& [q, v] : renamed_) add(to, q, v);
}

void LinkLedger::clear() {
  assert(!in_txn_);
  used_.clear();
}

void LinkLedger::begin_txn() {
  assert(!in_txn_);
  in_txn_ = true;
  journal_.clear();
}

void LinkLedger::commit_txn() {
  assert(in_txn_);
  in_txn_ = false;
  journal_.clear();
}

void LinkLedger::rollback_txn() {
  assert(in_txn_);
  in_txn_ = false;
  // Reverse replay: each entry restores its key to the state immediately
  // before the journaled call, so the whole replay restores the
  // pre-transaction ledger exactly (values bit for bit, absences included).
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    auto pos = lower(it->key);
    const bool present = pos != used_.end() && pos->first == it->key;
    if (it->existed) {
      if (present) {
        pos->second = it->old_value;
      } else {
        used_.insert(pos, {it->key, it->old_value});
      }
    } else if (present) {
      used_.erase(pos);
    }
  }
  journal_.clear();
}

bool LinkLedger::touched_within() const {
  for (const auto& e : journal_) {
    auto it = lower(e.key);
    if (it != used_.end() && it->first == e.key &&
        !fits_within(it->second, capacity_)) {
      return false;
    }
  }
  return true;
}

bool LinkLedger::touched_no_worse() const {
  // The journal may hold several entries per key; the *first* one records
  // the pre-transaction value, which is the baseline the relaxed check
  // compares against.  Later entries for the same key pass trivially
  // because their stored old_value is at least as permissive a baseline as
  // any intermediate state — checking every entry against its own recorded
  // value would wrongly accept a link whose usage grew in two steps, so
  // each key is judged once, against its first entry.
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    const JournalEntry& e = journal_[i];
    bool first = true;
    for (std::size_t j = 0; j < i; ++j) {
      if (journal_[j].key == e.key) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    auto it = lower(e.key);
    const MBps now =
        it == used_.end() || it->first != e.key ? 0.0 : it->second;
    if (fits_within(now, capacity_)) continue;
    const MBps before = e.existed ? e.old_value : 0.0;
    if (!fits_within(now, before)) return false;
  }
  return true;
}

} // namespace insp
