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

bool LinkLedger::touched_no_worse() const {
  for (auto e = journal_.begin(); e != journal_.end(); ++e) {
    auto it = lower(e->key);
    if (it == used_.end() || it->first != e->key ||
        fits_within(it->second, capacity_)) {
      continue;
    }
    // Over capacity: judge against the pre-transaction value, which the
    // key's *first* journal entry holds (a key may be journaled several
    // times).  Only links over capacity pay for this lookup.
    const auto first =
        std::find_if(journal_.begin(), e + 1, [&](const JournalEntry& j) {
          return j.key == e->key;
        });
    const MBps before = first->existed ? first->old_value : 0.0;
    if (!no_worse(it->second, before, capacity_)) return false;
  }
  return true;
}

} // namespace insp
