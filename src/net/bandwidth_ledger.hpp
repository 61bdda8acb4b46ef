// Bandwidth accounting for the bounded multi-port model (paper §2.2,
// after Hong & Prasanna): a resource can send and receive on many links
// simultaneously, but the sum of the transfer rates through its card is
// bounded by the card bandwidth; each individual link additionally bounds
// the sum of transfers routed through it.
//
// The ledger tracks card usage per resource and usage per (a,b) link with a
// uniform per-kind capacity, supports reserve/release, and reports headroom.
// It is the single accounting structure shared by the server-selection
// heuristics and the constraint checker.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace insp {

/// Card (NIC) accounts for a set of resources indexed 0..n-1.
class CardLedger {
 public:
  explicit CardLedger(std::vector<MBps> capacities);
  CardLedger() = default;

  std::size_t size() const { return capacity_.size(); }
  MBps capacity(int r) const { return capacity_[static_cast<std::size_t>(r)]; }
  MBps used(int r) const { return used_[static_cast<std::size_t>(r)]; }
  MBps headroom(int r) const { return capacity(r) - used(r); }
  bool can_add(int r, MBps amount) const {
    return fits_within(used(r) + amount, capacity(r));
  }
  void add(int r, MBps amount);
  void remove(int r, MBps amount);

 private:
  std::vector<MBps> capacity_;
  std::vector<MBps> used_;
};

/// Usage per unordered pair of endpoints with one uniform capacity
/// (the paper's platforms have identical bandwidth on every link of a kind).
/// Endpoints are opaque ints; processor<->processor links use processor ids
/// on both sides, server->processor links use (server, processor).
///
/// Transactions (docs/DESIGN.md §5): between begin_txn() and commit_txn() /
/// rollback_txn() every add/remove journals the link's prior value, so a
/// rollback restores the pre-transaction state bit for bit, and
/// touched_no_worse() judges only the links the transaction touched — the
/// delta API the incremental placement probes are built on.
/// rename_endpoint() relabels one endpoint outside transactions; it is how
/// a processor slot swap (PlacementState::try_absorb) carries its links.
class LinkLedger {
 public:
  /// One active link: ((min endpoint, max endpoint), usage).  Storage is a
  /// FLAT SORTED VECTOR, not a map: lookups are a contiguous binary search,
  /// inserts/erases shift elements but reuse capacity, so the probe/rollback
  /// hot paths make zero heap allocations in steady state (a map pays a
  /// node allocation on every transient try_emplace/erase).  Iteration
  /// order is identical to the old map's (sorted by key), which keeps every
  /// whole-ledger walk deterministic and byte-compatible.
  using Entry = std::pair<std::pair<int, int>, MBps>;

  explicit LinkLedger(MBps uniform_capacity);
  LinkLedger() = default;

  MBps capacity() const { return capacity_; }
  MBps used(int a, int b) const;
  MBps headroom(int a, int b) const { return capacity_ - used(a, b); }
  bool can_add(int a, int b, MBps amount) const {
    return fits_within(used(a, b) + amount, capacity_);
  }
  void add(int a, int b, MBps amount);
  void remove(int a, int b, MBps amount);
  /// Renames endpoint `from` to `to` (the processor slot swap of
  /// PlacementState::try_absorb, docs/DESIGN.md §5): every link (from, q)
  /// becomes (to, q), adding onto any usage (to, q) already carries, and the
  /// (from, to) link itself is dropped.  O(active links), outside
  /// transactions only; reuses a member buffer, so steady-state renames make
  /// no heap allocation.
  void rename_endpoint(int from, int to);
  void clear();
  std::size_t active_links() const { return used_.size(); }
  /// All links with non-zero usage, sorted by key (for whole-state
  /// validation).
  const std::vector<Entry>& entries() const { return used_; }
  /// True when every active link is within capacity.
  bool all_within() const;

  // --- transactions --------------------------------------------------------
  /// Starts journaling add/remove deltas.  Transactions do not nest.
  void begin_txn();
  /// Keeps all changes made since begin_txn() and drops the journal.
  void commit_txn();
  /// Undoes every journaled change in reverse order, restoring each touched
  /// link to its exact pre-transaction value (absent links stay absent).
  void rollback_txn();
  bool in_txn() const { return in_txn_; }
  /// Links touched since begin_txn() (journal entries; a link touched twice
  /// appears twice).
  std::size_t touched_links() const { return journal_.size(); }
  /// The capacity verdict (no_worse, util/units.hpp) over the links the
  /// open transaction touched, each against its pre-transaction value: a
  /// link that fit must still fit, and one already over capacity may stay
  /// over as long as its usage did not grow.  On a ledger that was within
  /// capacity this is all_within() restricted to the touched links.
  bool touched_no_worse() const;

 private:
  struct JournalEntry {
    std::pair<int, int> key;
    MBps old_value;  ///< meaningful only when existed
    bool existed;    ///< key had an entry before the journaled call
  };

  static std::pair<int, int> key(int a, int b);
  /// First entry with key >= k (sorted-vector lower bound).
  std::vector<Entry>::iterator lower(const std::pair<int, int>& k);
  std::vector<Entry>::const_iterator lower(const std::pair<int, int>& k) const;

  MBps capacity_ = 0.0;
  std::vector<Entry> used_;  ///< sorted by key
  std::vector<std::pair<int, MBps>> renamed_;  ///< rename_endpoint scratch
  bool in_txn_ = false;
  std::vector<JournalEntry> journal_;
};

} // namespace insp
