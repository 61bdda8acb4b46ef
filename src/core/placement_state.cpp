#include "core/placement_state.hpp"

#include <algorithm>
#include <cassert>

namespace insp {

namespace {

/// Insert `v` into sorted `xs` (no duplicates expected).
void sorted_insert(std::vector<int>& xs, int v) {
  xs.insert(std::lower_bound(xs.begin(), xs.end(), v), v);
}

/// Erase `v` from sorted `xs`; it must be present.
void sorted_erase(std::vector<int>& xs, int v) {
  auto it = std::lower_bound(xs.begin(), xs.end(), v);
  assert(it != xs.end() && *it == v);
  xs.erase(it);
}

} // namespace

PlacementState::PlacementState(Problem problem)
    : problem_(problem),
      op_to_proc_(static_cast<std::size_t>(problem.tree->num_operators()),
                  kNoNode),
      pp_links_(problem.platform->link_proc_proc()) {
  assert(problem.valid());
  unassigned_ids_.resize(op_to_proc_.size());
  for (std::size_t i = 0; i < unassigned_ids_.size(); ++i) {
    unassigned_ids_[i] = static_cast<int>(i);
  }
}

int PlacementState::buy(ProcessorConfig config) {
  assert(txn_mode_ == TxnMode::kNone);
  const int pid = static_cast<int>(procs_.size());
  ProcState p;
  p.cfg = config;
  p.live = true;
  procs_.push_back(std::move(p));
  live_ids_.push_back(pid);  // pids grow monotonically: stays sorted
  return pid;
}

void PlacementState::sell(int pid) {
  assert(txn_mode_ == TxnMode::kNone);
  auto& p = proc(pid);
  assert(p.live && p.ops.empty());
  p.live = false;
  sorted_erase(live_ids_, pid);
}

bool PlacementState::is_live(int pid) const {
  return pid >= 0 && static_cast<std::size_t>(pid) < procs_.size() &&
         proc(pid).live;
}

const ProcessorConfig& PlacementState::config(int pid) const {
  assert(is_live(pid));
  return proc(pid).cfg;
}

int PlacementState::proc_of(int op) const {
  return op_to_proc_[static_cast<std::size_t>(op)];
}

const std::vector<int>& PlacementState::ops_on(int pid) const {
  assert(is_live(pid));
  return proc(pid).ops;
}

// --- transactions ----------------------------------------------------------

void PlacementState::begin_txn(TxnMode mode) {
  assert(txn_mode_ == TxnMode::kNone);
  assert(mode != TxnMode::kNone);
  txn_mode_ = mode;
  ++txn_epoch_;
  snap_count_ = 0;
  touched_procs_.clear();
  moved_ops_.clear();
  pp_links_.begin_txn();
}

void PlacementState::touch_proc(int pid) {
  ProcState& p = proc(pid);
  if (p.touch_epoch == txn_epoch_) return;
  p.touch_epoch = txn_epoch_;
  touched_procs_.push_back(pid);
  if (txn_mode_ != TxnMode::kFull) return;
  if (snap_count_ == snaps_.size()) snaps_.emplace_back();
  ProcSnapshot& s = snaps_[snap_count_++];
  s.pid = pid;
  s.work = p.work;
  s.download = p.download;
  s.comm = p.comm;
  s.ops.assign(p.ops.begin(), p.ops.end());
  s.type_count.assign(p.type_count.begin(), p.type_count.end());
}

void PlacementState::commit_txn() {
  assert(txn_mode_ != TxnMode::kNone);
  txn_mode_ = TxnMode::kNone;
  pp_links_.commit_txn();
}

void PlacementState::rollback_txn() {
  assert(txn_mode_ == TxnMode::kFull);
  txn_mode_ = TxnMode::kNone;
  // Touched processors: restore the value snapshots verbatim.
  for (std::size_t i = snap_count_; i-- > 0;) {
    const ProcSnapshot& s = snaps_[i];
    ProcState& p = proc(s.pid);
    p.work = s.work;
    p.download = s.download;
    p.comm = s.comm;
    p.ops.assign(s.ops.begin(), s.ops.end());
    p.type_count.assign(s.type_count.begin(), s.type_count.end());
  }
  // Moved operators: reverse replay restores op_to_proc_ and the sorted
  // unassigned list (ints: exact).
  for (auto it = moved_ops_.rbegin(); it != moved_ops_.rend(); ++it) {
    const auto [op, prev] = *it;
    const int cur = op_to_proc_[static_cast<std::size_t>(op)];
    if (cur == kNoNode && prev != kNoNode) {
      sorted_erase(unassigned_ids_, op);
    } else if (cur != kNoNode && prev == kNoNode) {
      sorted_insert(unassigned_ids_, op);
    }
    op_to_proc_[static_cast<std::size_t>(op)] = prev;
  }
  pp_links_.rollback_txn();
}

bool PlacementState::touched_feasible() const {
  const PriceCatalog& cat = *problem_.catalog;
  for (int pid : touched_procs_) {
    const ProcState& p = proc(pid);
    if (!p.live) continue;
    if (!fits_within(problem_.rho * p.work, cat.speed(p.cfg))) return false;
    if (!fits_within(p.download + p.comm, cat.bandwidth(p.cfg))) return false;
  }
  return pp_links_.touched_within();
}

bool PlacementState::touched_no_worse() const {
  assert(txn_mode_ == TxnMode::kFull);
  const PriceCatalog& cat = *problem_.catalog;
  // In kFull mode touch_proc snapshots every touched processor as it
  // records it, so touched_procs_[i] and snaps_[i] describe the same
  // processor: the snapshot is the pre-transaction baseline.
  for (std::size_t i = 0; i < touched_procs_.size(); ++i) {
    const ProcState& p = proc(touched_procs_[i]);
    if (!p.live) continue;
    const ProcSnapshot& s = snaps_[i];
    assert(s.pid == touched_procs_[i]);
    const MegaOps cpu_now = problem_.rho * p.work;
    if (!fits_within(cpu_now, cat.speed(p.cfg)) &&
        !fits_within(cpu_now, problem_.rho * s.work)) {
      return false;
    }
    const MBps nic_now = p.download + p.comm;
    if (!fits_within(nic_now, cat.bandwidth(p.cfg)) &&
        !fits_within(nic_now, s.download + s.comm)) {
      return false;
    }
  }
  return pp_links_.touched_no_worse();
}

// --- assignment -------------------------------------------------------------

// Comm charging under multicast dedup (docs/DESIGN.md §13): a producer
// ships its result ONCE per distinct destination processor, at the largest
// out-edge delta into it.  The incremental charge when an edge endpoint
// arrives/leaves is therefore max-over-edges "after" minus "before".  For
// trees every out-degree is 1, before is always 0, and `x - 0.0 == x`
// bit-for-bit — the charges reduce exactly to the historical per-edge ones.

void PlacementState::assign_op(int op, int pid) {
  assert(proc_of(op) == kNoNode);
  if (txn_mode_ != TxnMode::kNone) {
    touch_proc(pid);
    if (txn_mode_ == TxnMode::kFull) moved_ops_.emplace_back(op, kNoNode);
  }
  const OperatorTree& tree = *problem_.tree;
  auto& p = proc(pid);
  op_to_proc_[static_cast<std::size_t>(op)] = pid;
  sorted_erase(unassigned_ids_, op);
  p.ops.push_back(op);
  p.work += tree.op(op).work;
  tree.visit_object_types(op, [&](int t) {
    auto it = std::lower_bound(
        p.type_count.begin(), p.type_count.end(), t,
        [](const std::pair<int, int>& e, int type) { return e.first < type; });
    if (it != p.type_count.end() && it->first == t) {
      ++it->second;
    } else {
      p.type_count.insert(it, {t, 1});
      p.download += tree.catalog().type(t).rate();
    }
  });
  const auto charge = [&](int q, MBps volume) {
    if (txn_mode_ != TxnMode::kNone) touch_proc(q);
    p.comm += volume;
    proc(q).comm += volume;
    pp_links_.add(pid, q, volume);
  };
  // Producer side: op starts shipping its output — once per distinct
  // destination processor, at the max delta into it (first-occurrence scan;
  // out-degrees are tiny, so O(deg^2) beats any allocation).
  const auto& out = tree.op(op).out;
  for (std::size_t a = 0; a < out.size(); ++a) {
    const int q = proc_of(out[a].dst);
    if (q == kNoNode || q == pid) continue;
    bool first = true;
    for (std::size_t b = 0; b < a; ++b) {
      if (proc_of(out[b].dst) == q) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    MegaBytes mx = out[a].delta;
    for (std::size_t b = a + 1; b < out.size(); ++b) {
      if (proc_of(out[b].dst) == q) mx = std::max(mx, out[b].delta);
    }
    charge(q, problem_.rho * mx);
  }
  // Consumer side: each distinct assigned child now (also) ships to pid;
  // its charge toward pid moves from the pre-assignment max to the new max.
  const auto& ch = tree.op(op).children;
  for (std::size_t a = 0; a < ch.size(); ++a) {
    const int c = ch[a];
    bool first = true;
    for (std::size_t b = 0; b < a; ++b) {
      if (ch[b] == c) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    const int q = proc_of(c);
    if (q == kNoNode || q == pid) continue;
    MegaBytes before = 0.0, after = 0.0;
    for (const OutEdge& e : tree.op(c).out) {
      if (proc_of(e.dst) != pid) continue;
      after = std::max(after, e.delta);
      if (e.dst != op) before = std::max(before, e.delta);
    }
    charge(q, problem_.rho * after - problem_.rho * before);
  }
}

void PlacementState::unassign_op(int op) {
  const int pid = proc_of(op);
  assert(pid != kNoNode);
  if (txn_mode_ != TxnMode::kNone) {
    touch_proc(pid);
    if (txn_mode_ == TxnMode::kFull) moved_ops_.emplace_back(op, pid);
  }
  const OperatorTree& tree = *problem_.tree;
  auto& p = proc(pid);
  const auto discharge = [&](int q, MBps volume) {
    if (txn_mode_ != TxnMode::kNone) touch_proc(q);
    p.comm -= volume;
    proc(q).comm -= volume;
    pp_links_.remove(pid, q, volume);
  };
  // Producer side: op stops shipping — remove the full deduped charge.
  const auto& out = tree.op(op).out;
  for (std::size_t a = 0; a < out.size(); ++a) {
    const int q = proc_of(out[a].dst);
    if (q == kNoNode || q == pid) continue;
    bool first = true;
    for (std::size_t b = 0; b < a; ++b) {
      if (proc_of(out[b].dst) == q) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    MegaBytes mx = out[a].delta;
    for (std::size_t b = a + 1; b < out.size(); ++b) {
      if (proc_of(out[b].dst) == q) mx = std::max(mx, out[b].delta);
    }
    discharge(q, problem_.rho * mx);
  }
  // Consumer side: each distinct assigned child drops from the current max
  // toward pid to the max without op (op is still in op_to_proc_ here).
  const auto& ch = tree.op(op).children;
  for (std::size_t a = 0; a < ch.size(); ++a) {
    const int c = ch[a];
    bool first = true;
    for (std::size_t b = 0; b < a; ++b) {
      if (ch[b] == c) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    const int q = proc_of(c);
    if (q == kNoNode || q == pid) continue;
    MegaBytes cur = 0.0, without = 0.0;
    for (const OutEdge& e : tree.op(c).out) {
      if (proc_of(e.dst) != pid) continue;
      cur = std::max(cur, e.delta);
      if (e.dst != op) without = std::max(without, e.delta);
    }
    discharge(q, problem_.rho * cur - problem_.rho * without);
  }
  problem_.tree->visit_object_types(op, [&](int t) {
    auto it = std::lower_bound(
        p.type_count.begin(), p.type_count.end(), t,
        [](const std::pair<int, int>& e, int type) { return e.first < type; });
    assert(it != p.type_count.end() && it->first == t);
    if (--it->second == 0) {
      p.download -= problem_.tree->catalog().type(t).rate();
      p.type_count.erase(it);
    }
  });
  p.work -= problem_.tree->op(op).work;
  auto pos = std::find(p.ops.begin(), p.ops.end(), op);
  assert(pos != p.ops.end());
  *pos = p.ops.back();
  p.ops.pop_back();
  op_to_proc_[static_cast<std::size_t>(op)] = kNoNode;
  sorted_insert(unassigned_ids_, op);
}

bool PlacementState::feasible() const {
  const PriceCatalog& cat = *problem_.catalog;
  for (const auto& p : procs_) {
    if (!p.live) continue;
    if (!fits_within(problem_.rho * p.work, cat.speed(p.cfg))) return false;
    if (!fits_within(p.download + p.comm, cat.bandwidth(p.cfg))) return false;
  }
  return pp_links_.all_within();
}

bool PlacementState::probe(const int* ops, std::size_t n, int pid,
                           bool commit, bool relaxed) {
  // `ops` routinely aliases ops_on() of a processor the move empties, and
  // assign/unassign reshuffle those vectors — copy into reusable scratch.
  scratch_ops_.assign(ops, ops + n);
  sell_candidates_.clear();
  begin_txn(TxnMode::kFull);
  for (int op : scratch_ops_) {
    const int src = proc_of(op);
    if (src == pid) continue;
    if (src != kNoNode) {
      unassign_op(op);
      sell_candidates_.push_back(src);
    }
    assign_op(op, pid);
  }
  if (!(relaxed ? touched_no_worse() : touched_feasible())) {
    rollback_txn();
    return false;
  }
  if (!commit) {
    rollback_txn();
    return true;
  }
  commit_txn();
  // Sell the source processors the move emptied (Random: "this last
  // processor is sold back"; SBU: "possibly returning some processors").
  // Only sources are sold — processors that were already empty (e.g. just
  // bought by the caller) are none of this move's business.
  for (int src : sell_candidates_) {
    const auto& p = proc(src);
    if (p.live && p.ops.empty()) sell(src);
  }
  return true;
}

bool PlacementState::try_place(const std::vector<int>& ops, int pid) {
  assert(is_live(pid));
  return probe(ops.data(), ops.size(), pid, /*commit=*/true,
               /*relaxed=*/false);
}

bool PlacementState::try_place(int op, int pid) {
  assert(is_live(pid));
  return probe(&op, 1, pid, /*commit=*/true, /*relaxed=*/false);
}

bool PlacementState::can_place(const std::vector<int>& ops, int pid) {
  return probe(ops.data(), ops.size(), pid, /*commit=*/false,
               /*relaxed=*/false);
}

bool PlacementState::can_place(int op, int pid) {
  return probe(&op, 1, pid, /*commit=*/false, /*relaxed=*/false);
}

bool PlacementState::try_place_relaxed(const std::vector<int>& ops, int pid) {
  assert(is_live(pid));
  return probe(ops.data(), ops.size(), pid, /*commit=*/true,
               /*relaxed=*/true);
}

bool PlacementState::try_place_relaxed(int op, int pid) {
  assert(is_live(pid));
  return probe(&op, 1, pid, /*commit=*/true, /*relaxed=*/true);
}

bool PlacementState::can_place_relaxed(const std::vector<int>& ops, int pid) {
  return probe(ops.data(), ops.size(), pid, /*commit=*/false,
               /*relaxed=*/true);
}

bool PlacementState::can_place_relaxed(int op, int pid) {
  return probe(&op, 1, pid, /*commit=*/false, /*relaxed=*/true);
}

// --- batched probes (docs/DESIGN.md §10) ------------------------------------

void PlacementState::begin_group_lift() {
  assert(!lift_open_);
  for (int op : batch_group_) {
    batch_group_pos_[static_cast<std::size_t>(op)] = 0;
  }
  for (const auto& f : frontier_) {
    frontier_slot_[static_cast<std::size_t>(f.first)] = 0;
  }
  batch_group_.clear();
  batch_transient_.clear();
  frontier_.clear();
  frontier_visited_ = 0;
  batch_group_pos_.resize(op_to_proc_.size(), 0);
  frontier_slot_.resize(op_to_proc_.size(), 0);
  begin_txn(TxnMode::kFull);
  lift_open_ = true;
}

void PlacementState::lift_member(int op) {
  if (!lift_open_) {
    // Re-lift after end_group_lift(): the same unassign sequence again.
    begin_txn(TxnMode::kFull);
    lift_open_ = true;
    for (int m : batch_group_) {
      if (proc_of(m) != kNoNode) unassign_op(m);
    }
  }
  // Deduplicate preserving order: the sequential probe skips an operator's
  // second occurrence (it is already on the target by then).
  int& pos = batch_group_pos_[static_cast<std::size_t>(op)];
  if (pos != 0) return;
  const int src = proc_of(op);
  if (src != kNoNode) {
    // Transient source: when a member has a group neighbor that moves
    // BEFORE it, the sequential probe realizes their edge toward its source
    // for a moment — touching link (candidate, src) with net zero volume but
    // still validating it at its baseline value.  Every current member moves
    // before `op`, so the flag is final now; footprint_from_baseline folds
    // it in as a zero-volume ext entry so the strict verdict checks the
    // same links.
    bool has_earlier = false;
    visit_neighbors(op, [&](int a, MBps /*volume*/) {
      if (batch_group_pos_[static_cast<std::size_t>(a)] != 0) {
        has_earlier = true;
      }
    });
    if (has_earlier) batch_transient_.push_back(src);
  }
  batch_group_.push_back(op);
  pos = static_cast<int>(batch_group_.size());
  if (src != kNoNode) unassign_op(op);
}

void PlacementState::end_group_lift() {
  if (!lift_open_) return;
  lift_open_ = false;
  rollback_txn();
}

int PlacementState::heaviest_group_neighbor(MBps* volume) {
  for (; frontier_visited_ < batch_group_.size(); ++frontier_visited_) {
    visit_neighbors(batch_group_[frontier_visited_], [&](int nb, MBps vol) {
      if (batch_group_pos_[static_cast<std::size_t>(nb)] != 0) return;
      int& slot = frontier_slot_[static_cast<std::size_t>(nb)];
      if (slot == 0) {
        frontier_.emplace_back(nb, vol);
        slot = static_cast<int>(frontier_.size());
      } else {
        MBps& best = frontier_[static_cast<std::size_t>(slot - 1)].second;
        best = std::max(best, vol);
      }
    });
  }
  int best = kNoNode;
  MBps best_vol = 0.0;
  for (const auto& [nb, vol] : frontier_) {
    // Entries that joined the group since they were found are skipped.
    if (batch_group_pos_[static_cast<std::size_t>(nb)] != 0) continue;
    if (best == kNoNode || vol > best_vol || (vol == best_vol && nb < best)) {
      best = nb;
      best_vol = vol;
    }
  }
  if (volume) *volume = best_vol;
  return best;
}

const std::vector<unsigned char>& PlacementState::lifted_verdicts(
    const ProcessorConfig* configs, std::size_t n) {
  assert(lift_open_);
  batch_verdicts_.assign(n, 1);
  // An empty move is vacuously feasible everywhere.
  if (n == 0 || batch_group_.empty()) return batch_verdicts_;
  footprint_from_baseline(/*relaxed=*/false);
  const PriceCatalog& cat = *problem_.catalog;
  batch_speed_caps_.resize(n);
  batch_bw_caps_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch_speed_caps_[i] = cat.speed(configs[i]);
    batch_bw_caps_[i] = cat.bandwidth(configs[i]);
  }
  soa_probe_configs(fp_, batch_speed_caps_.data(), batch_bw_caps_.data(), n,
                    batch_verdicts_.data());
  return batch_verdicts_;
}

void PlacementState::footprint_from_baseline(bool relaxed) {
  assert(lift_open_ && !batch_group_.empty());
  const OperatorTree& tree = *problem_.tree;
  const PriceCatalog& cat = *problem_.catalog;

  fp_.rho = problem_.rho;
  fp_.relaxed = relaxed;
  fp_.link_cap = pp_links_.capacity();
  fp_.sum_w = 0.0;
  fp_.has_shared_child = false;
  fp_.gtypes.clear();
  fp_.gtype_rate.clear();
  fp_.ext_pid.clear();
  fp_.ext_vol.clear();
  // All -1 between calls: only the slots used below are reset at the end.
  batch_ext_slot_.resize(procs_.size(), -1);
  const auto slot_add = [&](int q, MBps volume) {
    int slot = batch_ext_slot_[static_cast<std::size_t>(q)];
    if (slot < 0) {
      slot = static_cast<int>(fp_.ext_pid.size());
      batch_ext_slot_[static_cast<std::size_t>(q)] = slot;
      fp_.ext_pid.push_back(q);
      fp_.ext_vol.push_back(0.0);
    }
    fp_.ext_vol[static_cast<std::size_t>(slot)] += volume;
  };
  // Replays the sequential probe's member-by-member charging (docs/DESIGN.md
  // §10, §13) against a hypothetical candidate hosting the whole group, so
  // the accumulation order — and thus every FP sum — matches the sequential
  // path exactly on trees.
  for (std::size_t ib = 0; ib < batch_group_.size(); ++ib) {
    const int m = batch_group_[ib];
    fp_.sum_w += tree.op(m).work;
    tree.visit_object_types(m, [&](int t) {
      if (std::find(fp_.gtypes.begin(), fp_.gtypes.end(), t) ==
          fp_.gtypes.end()) {
        fp_.gtypes.push_back(t);
        fp_.gtype_rate.push_back(tree.catalog().type(t).rate());
      }
    });
    // Producer side: m ships once per distinct external destination
    // processor, at the max out-edge delta into it.  Out-edges to group
    // members are co-located on the candidate: free, like the sequential
    // assign (their proc is kNoNode under the open baseline anyway).
    const auto& out = tree.op(m).out;
    for (std::size_t a = 0; a < out.size(); ++a) {
      if (batch_group_pos_[static_cast<std::size_t>(out[a].dst)] != 0) {
        continue;
      }
      const int q = proc_of(out[a].dst);
      if (q == kNoNode) continue;
      bool first = true;
      for (std::size_t b = 0; b < a; ++b) {
        const int dst = out[b].dst;
        if (batch_group_pos_[static_cast<std::size_t>(dst)] == 0 &&
            proc_of(dst) == q) {
          first = false;
          break;
        }
      }
      if (!first) continue;
      MegaBytes mx = out[a].delta;
      for (std::size_t b = a + 1; b < out.size(); ++b) {
        const int dst = out[b].dst;
        if (batch_group_pos_[static_cast<std::size_t>(dst)] == 0 &&
            proc_of(dst) == q) {
          mx = std::max(mx, out[b].delta);
        }
      }
      slot_add(q, problem_.rho * mx);
    }
    // Consumer side: each distinct external assigned child ships to the
    // candidate; its charge steps from the max over *earlier* group
    // consumers to the max including m — summed over members this telescopes
    // to the deduped max, in the sequential accumulation order.
    const auto& ch = tree.op(m).children;
    for (std::size_t a = 0; a < ch.size(); ++a) {
      const int c = ch[a];
      if (batch_group_pos_[static_cast<std::size_t>(c)] != 0) continue;
      bool first = true;
      for (std::size_t b = 0; b < a; ++b) {
        if (ch[b] == c) {
          first = false;
          break;
        }
      }
      if (!first) continue;
      const int q = proc_of(c);
      if (q == kNoNode) continue;
      MegaBytes before = 0.0, after = 0.0;
      for (const OutEdge& e : tree.op(c).out) {
        const int pos = batch_group_pos_[static_cast<std::size_t>(e.dst)];
        if (pos == 0) {
          // A shared external child with another *assigned* consumer may
          // already ship to one of the candidates, which this
          // candidate-independent footprint cannot see — those lanes are
          // resolved through the sequential path (batch_probe).
          if (proc_of(e.dst) != kNoNode) fp_.has_shared_child = true;
          continue;
        }
        if (pos - 1 <= static_cast<int>(ib)) {
          after = std::max(after, e.delta);
          if (pos - 1 < static_cast<int>(ib)) before = std::max(before, e.delta);
        }
      }
      slot_add(q, problem_.rho * after - problem_.rho * before);
    }
  }
  double ext_total = 0.0;
  for (double v : fp_.ext_vol) ext_total += v;
  fp_.ext_total = ext_total;
  for (int s : batch_transient_) {
    if (batch_ext_slot_[static_cast<std::size_t>(s)] < 0) {
      batch_ext_slot_[static_cast<std::size_t>(s)] =
          static_cast<int>(fp_.ext_pid.size());
      fp_.ext_pid.push_back(s);
      fp_.ext_vol.push_back(0.0);
    }
  }

  // Fold the candidate-independent processor checks: drained sources (at
  // their baseline values) and external neighbor processors (baseline plus
  // the edge volume the placement realizes toward them).  The candidate
  // itself is judged by its own richer check in the kernel; the count/pid
  // pair lets it forgive exactly its own folded entry.
  fp_.others_failed = 0;
  fp_.others_failed_pid = -1;
  const auto eval_other = [&](int o, double w0, double d0, double c0) {
    const ProcState& p = proc(o);
    if (!p.live) return;
    const int slot = batch_ext_slot_[static_cast<std::size_t>(o)];
    const double ev = slot >= 0 ? fp_.ext_vol[static_cast<std::size_t>(slot)]
                                : 0.0;
    const double cpu_now = problem_.rho * p.work;
    const double nic_now = p.download + p.comm + ev;
    const bool ok =
        (fits_within(cpu_now, cat.speed(p.cfg)) ||
         (relaxed && fits_within(cpu_now, problem_.rho * w0))) &&
        (fits_within(nic_now, cat.bandwidth(p.cfg)) ||
         (relaxed && fits_within(nic_now, d0 + c0)));
    if (!ok) {
      ++fp_.others_failed;
      fp_.others_failed_pid = o;
    }
  };
  // Baseline-touched processors carry their pre-transaction snapshot in
  // snaps_ (parallel to touched_procs_ in kFull mode); processors only the
  // candidate assignment touches are at their pre-transaction values now.
  for (std::size_t i = 0; i < touched_procs_.size(); ++i) {
    const ProcSnapshot& s = snaps_[i];
    eval_other(touched_procs_[i], s.work, s.download, s.comm);
  }
  for (int q : fp_.ext_pid) {
    const ProcState& p = proc(q);
    if (p.touch_epoch == txn_epoch_) continue;  // folded above
    eval_other(q, p.work, p.download, p.comm);
  }

  // Strict: every link the baseline touched must fit at its baseline value
  // (re-added candidate-side volume is re-checked per candidate; volumes are
  // non-negative and fits_within is monotone, so the conjunction is exact).
  // Relaxed: vacuous — the baseline only removes volume.
  fp_.base_links_ok = relaxed ? true : pp_links_.touched_within();
  for (int q : fp_.ext_pid) batch_ext_slot_[static_cast<std::size_t>(q)] = -1;
}

void PlacementState::batch_probe(const int* ops, std::size_t n,
                                 const int* pids, std::size_t num,
                                 bool relaxed, unsigned char* verdicts) {
  if (num == 0) return;
  if (n == 0) {
    // Empty move: the sequential probe touches nothing and reports true.
    std::fill(verdicts, verdicts + num, 1);
    return;
  }
  proc_is_source_.assign(procs_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int src = proc_of(ops[i]);
    if (src != kNoNode) proc_is_source_[static_cast<std::size_t>(src)] = 1;
  }
  begin_group_lift();
  for (std::size_t i = 0; i < n; ++i) lift_member(ops[i]);
  footprint_from_baseline(relaxed);
  bool any_skip = false;
  batch_skip_.assign(num, 0);
  for (std::size_t i = 0; i < num; ++i) {
    assert(is_live(pids[i]));
    // Candidates hosting group members keep partial-move semantics, and a
    // shared external child may already ship to *any* existing candidate —
    // both are invisible to the candidate-independent footprint, so those
    // lanes fall back to the sequential probe.  has_shared_child is always
    // false on trees, keeping the fast path byte-identical there.
    if (proc_is_source_[static_cast<std::size_t>(pids[i])] ||
        fp_.has_shared_child) {
      batch_skip_[i] = 1;
      any_skip = true;
    }
  }

  // Gather the flat SoA mirror while the baseline is open.
  const PriceCatalog& cat = *problem_.catalog;
  soa_.resize(procs_.size());
  for (int pid : live_ids_) {
    const ProcState& p = proc(pid);
    const auto u = static_cast<std::size_t>(pid);
    soa_.speed_cap[u] = cat.speed(p.cfg);
    soa_.bw_cap[u] = cat.bandwidth(p.cfg);
    soa_.work[u] = p.work;
    soa_.nic[u] = p.download + p.comm;
    soa_.work0[u] = p.work;
    soa_.nic0[u] = p.download + p.comm;
    soa_.vol_to[u] = 0.0;
  }
  for (std::size_t i = 0; i < snap_count_; ++i) {
    const ProcSnapshot& s = snaps_[i];
    const auto u = static_cast<std::size_t>(s.pid);
    soa_.work0[u] = s.work;
    soa_.nic0[u] = s.download + s.comm;
  }
  for (std::size_t j = 0; j < fp_.ext_pid.size(); ++j) {
    soa_.vol_to[static_cast<std::size_t>(fp_.ext_pid[j])] = fp_.ext_vol[j];
  }

  // Per-candidate download delta: rates of group types the candidate does
  // not already hold, summed in the group's first-need order (matching the
  // sequential assignment's accumulation order).
  batch_dl_add_.assign(num, 0.0);
  for (std::size_t i = 0; i < num; ++i) {
    if (batch_skip_[i]) continue;
    const auto& tc = proc(pids[i]).type_count;
    double add = 0.0;
    for (std::size_t g = 0; g < fp_.gtypes.size(); ++g) {
      const int t = fp_.gtypes[g];
      const auto it = std::lower_bound(
          tc.begin(), tc.end(), t,
          [](const std::pair<int, int>& e, int type) {
            return e.first < type;
          });
      if (it == tc.end() || it->first != t) add += fp_.gtype_rate[g];
    }
    batch_dl_add_[i] = add;
  }

  // Baseline (and, relaxed, pre-transaction) usage of every candidate<->ext
  // link, column-major [ext][candidate] (stride = num) so the probe loop
  // reads each neighbor's column contiguously.
  const std::size_t ext = fp_.ext_pid.size();
  batch_link_base_.assign(num * ext, 0.0);
  batch_link_pre_.assign(relaxed ? num * ext : 0, 0.0);
  for (std::size_t i = 0; i < num; ++i) {
    if (batch_skip_[i]) continue;
    for (std::size_t j = 0; j < ext; ++j) {
      if (fp_.ext_pid[j] == pids[i]) continue;
      batch_link_base_[j * num + i] = pp_links_.used(pids[i], fp_.ext_pid[j]);
      if (relaxed) {
        batch_link_pre_[j * num + i] =
            pp_links_.pre_txn_value(pids[i], fp_.ext_pid[j]);
      }
    }
  }

  end_group_lift();

  soa_probe_candidates(soa_, fp_, pids, num, batch_dl_add_.data(),
                       batch_link_base_.data(),
                       relaxed ? batch_link_pre_.data() : nullptr,
                       /*stride=*/num, batch_skip_.data(), verdicts);

  // Candidates hosting group members keep the sequential probe's
  // partial-move semantics (members already on the target do not move at
  // all); resolve them through the sequential path.
  if (any_skip) {
    for (std::size_t i = 0; i < num; ++i) {
      if (!batch_skip_[i]) continue;
      verdicts[i] =
          probe(ops, n, pids[i], /*commit=*/false, relaxed) ? 1 : 0;
    }
  }
}

void PlacementState::can_place_batch(const std::vector<int>& ops,
                                     const std::vector<int>& pids,
                                     std::vector<unsigned char>& verdicts) {
  verdicts.resize(pids.size());
  batch_probe(ops.data(), ops.size(), pids.data(), pids.size(),
              /*relaxed=*/false, verdicts.data());
}

void PlacementState::can_place_batch_relaxed(
    const std::vector<int>& ops, const std::vector<int>& pids,
    std::vector<unsigned char>& verdicts) {
  verdicts.resize(pids.size());
  batch_probe(ops.data(), ops.size(), pids.data(), pids.size(),
              /*relaxed=*/true, verdicts.data());
}

int PlacementState::first_feasible_target(const std::vector<int>& ops,
                                          const std::vector<int>& pids,
                                          bool relaxed) {
  batch_verdicts_.resize(pids.size());
  batch_probe(ops.data(), ops.size(), pids.data(), pids.size(), relaxed,
              batch_verdicts_.data());
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (batch_verdicts_[i]) return pids[i];
  }
  return kNoNode;
}

int PlacementState::first_feasible_target(int op, const std::vector<int>& pids,
                                          bool relaxed) {
  batch_verdicts_.resize(pids.size());
  batch_probe(&op, 1, pids.data(), pids.size(), relaxed,
              batch_verdicts_.data());
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (batch_verdicts_[i]) return pids[i];
  }
  return kNoNode;
}

void PlacementState::can_place_on_new_batch(
    const std::vector<int>& ops, const std::vector<ProcessorConfig>& configs,
    std::vector<unsigned char>& verdicts) {
  begin_group_lift();
  for (int op : ops) lift_member(op);
  const auto& lifted = lifted_verdicts(configs.data(), configs.size());
  verdicts.assign(lifted.begin(), lifted.end());
  end_group_lift();
}

bool PlacementState::search_place(int op, int pid) {
  begin_txn(TxnMode::kTrack);
  assign_op(op, pid);
  const bool ok = touched_feasible();
  commit_txn();
  return ok;
}

// --- repair API -------------------------------------------------------------

bool PlacementState::try_reconfigure(int pid, ProcessorConfig config) {
  assert(txn_mode_ == TxnMode::kNone);
  assert(is_live(pid));
  const PriceCatalog& cat = *problem_.catalog;
  ProcState& p = proc(pid);
  if (!fits_within(problem_.rho * p.work, cat.speed(config))) return false;
  if (!fits_within(p.download + p.comm, cat.bandwidth(config))) return false;
  p.cfg = config;
  return true;
}

void PlacementState::refresh_op_demand(int op, MegaOps old_work,
                                       MegaBytes old_output_mb) {
  assert(txn_mode_ == TxnMode::kNone);
  const int pid = proc_of(op);
  const auto& node = problem_.tree->op(op);
  if (pid != kNoNode) {
    proc(pid).work += node.work - old_work;
  }
  // Only op's *output* edges depend on op's own delta; edges to children
  // carry the children's deltas and are refreshed by their own calls.
  // set_demand writes the new output_mb into every out-edge delta and the
  // previous deltas were uniform (== old_output_mb) by the same contract,
  // so each distinct destination's deduped max moves by exactly dv.
  if (pid == kNoNode) return;
  const MBps dv = problem_.rho * (node.output_mb - old_output_mb);
  if (dv == 0.0) return;
  const auto& out = node.out;
  for (std::size_t a = 0; a < out.size(); ++a) {
    const int q = proc_of(out[a].dst);
    if (q == kNoNode || q == pid) continue;
    bool first = true;
    for (std::size_t b = 0; b < a; ++b) {
      if (proc_of(out[b].dst) == q) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    proc(pid).comm += dv;
    proc(q).comm += dv;
    if (dv > 0.0) {
      pp_links_.add(pid, q, dv);
    } else {
      pp_links_.remove(pid, q, -dv);
    }
  }
}

void PlacementState::refresh_object_rate(int type, MBps old_rate) {
  assert(txn_mode_ == TxnMode::kNone);
  const MBps dv = problem_.tree->catalog().type(type).rate() - old_rate;
  if (dv == 0.0) return;
  for (int pid : live_ids_) {
    ProcState& p = proc(pid);
    const auto it = std::lower_bound(
        p.type_count.begin(), p.type_count.end(), type,
        [](const std::pair<int, int>& e, int t) { return e.first < t; });
    if (it != p.type_count.end() && it->first == type) p.download += dv;
  }
}

std::vector<int> PlacementState::overloaded_processors() const {
  std::vector<int> out;
  overloaded_processors(out);
  return out;
}

void PlacementState::overloaded_processors(std::vector<int>& out) const {
  const PriceCatalog& cat = *problem_.catalog;
  out.clear();
  for (int pid : live_ids_) {
    const ProcState& p = proc(pid);
    if (!fits_within(problem_.rho * p.work, cat.speed(p.cfg)) ||
        !fits_within(p.download + p.comm, cat.bandwidth(p.cfg))) {
      out.push_back(pid);
    }
  }
}

std::vector<std::pair<int, int>> PlacementState::overloaded_links() const {
  std::vector<std::pair<int, int>> out;
  overloaded_links(out);
  return out;
}

void PlacementState::overloaded_links(
    std::vector<std::pair<int, int>>& out) const {
  out.clear();
  for (const auto& [link, used] : pp_links_.entries()) {
    if (!fits_within(used, pp_links_.capacity())) out.push_back(link);
  }
}

// --- loads ------------------------------------------------------------------

MegaOps PlacementState::cpu_demand(int pid) const {
  return problem_.rho * proc(pid).work;
}

MBps PlacementState::download_load(int pid) const {
  return proc(pid).download;
}

MBps PlacementState::comm_load(int pid) const { return proc(pid).comm; }

std::vector<int> PlacementState::download_types(int pid) const {
  std::vector<int> types;
  types.reserve(proc(pid).type_count.size());
  for (const auto& [t, count] : proc(pid).type_count) {
    (void)count;
    types.push_back(t);
  }
  return types;
}

MBps PlacementState::pair_traffic(int a, int b) const {
  return pp_links_.used(a, b);
}

Dollars PlacementState::total_cost() const {
  Dollars total = 0.0;
  for (const auto& p : procs_) {
    if (p.live) total += problem_.catalog->cost(p.cfg);
  }
  return total;
}

Allocation PlacementState::to_allocation() const {
  assert(num_unassigned() == 0);
  Allocation alloc;
  std::vector<int> dense(procs_.size(), kNoNode);
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const auto& p = procs_[i];
    // Live-but-empty processors can exist during exhaustive search
    // (pre-bought slots); they carry no operators and are not part of the
    // resulting purchase plan.
    if (!p.live || p.ops.empty()) continue;
    dense[i] = static_cast<int>(alloc.processors.size());
    PurchasedProcessor out;
    out.config = p.cfg;
    out.ops = p.ops;
    std::sort(out.ops.begin(), out.ops.end());
    alloc.processors.push_back(std::move(out));
  }
  alloc.op_to_proc.resize(op_to_proc_.size(), kNoNode);
  for (std::size_t op = 0; op < op_to_proc_.size(); ++op) {
    assert(op_to_proc_[op] != kNoNode);
    alloc.op_to_proc[op] = dense[static_cast<std::size_t>(op_to_proc_[op])];
  }
  return alloc;
}

} // namespace insp
