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
  moved_ops_.clear();
  pp_links_.begin_txn();
}

void PlacementState::touch_proc(int pid) {
  ProcState& p = proc(pid);
  if (p.touch_epoch == txn_epoch_) return;
  p.touch_epoch = txn_epoch_;
  if (snap_count_ == snaps_.size()) snaps_.emplace_back();
  ProcSnapshot& s = snaps_[snap_count_++];
  s.pid = pid;
  s.work = p.work;
  s.download = p.download;
  s.comm = p.comm;
  if (txn_mode_ != TxnMode::kFull) return;
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

bool PlacementState::proc_fits(const ProcessorConfig& cfg, MegaOps work,
                               MBps nic, MegaOps was_work,
                               MBps was_nic) const {
  const PriceCatalog& cat = *problem_.catalog;
  return no_worse(problem_.rho * work, problem_.rho * was_work,
                  cat.speed(cfg)) &&
         no_worse(nic, was_nic, cat.bandwidth(cfg));
}

bool PlacementState::touched_no_worse() const {
  for (std::size_t i = 0; i < snap_count_; ++i) {
    const ProcSnapshot& s = snaps_[i];
    const ProcState& p = proc(s.pid);
    if (p.live && !proc_fits(p.cfg, p.work, p.download + p.comm, s.work,
                             s.download + s.comm)) {
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
  const auto proc_of_op = [this](int o) { return proc_of(o); };
  // Producer side: op starts shipping its output under the multicast rule.
  tree.visit_shipments(op, pid, proc_of_op, [&](int q, MegaBytes mx) {
    charge(q, problem_.rho * mx);
  });
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
  const auto proc_of_op = [this](int o) { return proc_of(o); };
  tree.visit_shipments(op, pid, proc_of_op, [&](int q, MegaBytes mx) {
    discharge(q, problem_.rho * mx);
  });
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
  for (const auto& p : procs_) {
    if (p.live && !proc_fits(p.cfg, p.work, p.download + p.comm)) return false;
  }
  return pp_links_.all_within();
}

bool PlacementState::stage_move(const int* ops, std::size_t n, int pid) {
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
  if (!touched_no_worse()) {
    rollback_txn();
    return false;
  }
  return true;
}

bool PlacementState::probe(const int* ops, std::size_t n, int pid,
                           bool commit) {
  if (!stage_move(ops, n, pid)) return false;
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
  return probe(ops.data(), ops.size(), pid, /*commit=*/true);
}

bool PlacementState::try_place(int op, int pid) {
  assert(is_live(pid));
  return probe(&op, 1, pid, /*commit=*/true);
}

bool PlacementState::can_place(const std::vector<int>& ops, int pid) {
  return probe(ops.data(), ops.size(), pid, /*commit=*/false);
}

bool PlacementState::can_place(int op, int pid) {
  return probe(&op, 1, pid, /*commit=*/false);
}

bool PlacementState::try_absorb(int from, int into) {
  assert(is_live(from) && is_live(into) && from != into);
  ProcState& f = proc(from);
  ProcState& t = proc(into);
  if (f.ops.size() <= t.ops.size() || !(f.cfg == t.cfg)) {
    return try_place(f.ops, into);
  }
  // The cheaper direction: move into's smaller content onto `from` under the
  // usual probe, then exchange the two slots so the union carries into's
  // label.  Same configuration, same union: the verdict is the forward one
  // (up to summation order), and a failure rolls back before any swap.
  const std::size_t n_from = f.ops.size();
  if (!stage_move(t.ops.data(), t.ops.size(), from)) return false;
  commit_txn();
  std::swap(f.ops, t.ops);
  std::swap(f.work, t.work);
  std::swap(f.type_count, t.type_count);
  std::swap(f.download, t.download);
  std::swap(f.comm, t.comm);
  // The move appended into's operators after from's; the forward move
  // appends from's after into's.
  std::rotate(t.ops.begin(), t.ops.begin() + static_cast<std::ptrdiff_t>(n_from),
              t.ops.end());
  for (int op : t.ops) op_to_proc_[static_cast<std::size_t>(op)] = into;
  pp_links_.rename_endpoint(from, into);
  sell(from);
  return true;
}

// --- group lift and fresh-processor verdicts (docs/DESIGN.md §10) ----------

void PlacementState::begin_group_lift() {
  assert(!lift_open_);
  for (int op : lift_group_) {
    lift_pos_[static_cast<std::size_t>(op)] = 0;
  }
  for (const auto& f : frontier_) {
    frontier_slot_[static_cast<std::size_t>(f.first)] = 0;
  }
  lift_group_.clear();
  frontier_.clear();
  frontier_visited_ = 0;
  lift_pos_.resize(op_to_proc_.size(), 0);
  frontier_slot_.resize(op_to_proc_.size(), 0);
  begin_txn(TxnMode::kFull);
  lift_open_ = true;
}

void PlacementState::lift_member(int op) {
  if (!lift_open_) {
    // Re-lift after end_group_lift(): the same unassign sequence again.
    begin_txn(TxnMode::kFull);
    lift_open_ = true;
    for (int m : lift_group_) {
      if (proc_of(m) != kNoNode) unassign_op(m);
    }
  }
  // Deduplicate preserving order: the sequential probe skips an operator's
  // second occurrence (it is already on the target by then).
  int& pos = lift_pos_[static_cast<std::size_t>(op)];
  if (pos != 0) return;
  lift_group_.push_back(op);
  pos = static_cast<int>(lift_group_.size());
  if (proc_of(op) != kNoNode) unassign_op(op);
}

void PlacementState::end_group_lift() {
  if (!lift_open_) return;
  lift_open_ = false;
  rollback_txn();
}

int PlacementState::heaviest_group_neighbor(MBps* volume) {
  for (; frontier_visited_ < lift_group_.size(); ++frontier_visited_) {
    visit_neighbors(lift_group_[frontier_visited_], [&](int nb, MBps vol) {
      if (lift_pos_[static_cast<std::size_t>(nb)] != 0) return;
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
    if (lift_pos_[static_cast<std::size_t>(nb)] != 0) continue;
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
  lift_verdicts_.assign(n, 1);
  // An empty move is vacuously feasible everywhere.
  if (n == 0 || lift_group_.empty()) return lift_verdicts_;
  footprint_from_baseline();
  // A fresh processor is empty (a zero baseline): every group type is
  // downloaded and every external edge crosses, so each configuration is
  // two comparisons.
  const MBps nic = fp_.download + fp_.ext_total;
  for (std::size_t i = 0; i < n; ++i) {
    lift_verdicts_[i] =
        fp_.others_ok && proc_fits(configs[i], fp_.sum_w, nic) ? 1 : 0;
  }
  return lift_verdicts_;
}

void PlacementState::footprint_from_baseline() {
  assert(lift_open_ && !lift_group_.empty());
  const OperatorTree& tree = *problem_.tree;

  fp_.sum_w = 0.0;
  fp_.types.clear();
  fp_.download = 0.0;
  fp_.ext_pid.clear();
  fp_.ext_vol.clear();
  // All -1 between calls: only the slots used below are reset at the end.
  ext_slot_.resize(procs_.size(), -1);
  const auto slot_add = [&](int q, MBps volume) {
    int slot = ext_slot_[static_cast<std::size_t>(q)];
    if (slot < 0) {
      slot = static_cast<int>(fp_.ext_pid.size());
      ext_slot_[static_cast<std::size_t>(q)] = slot;
      fp_.ext_pid.push_back(q);
      fp_.ext_vol.push_back(0.0);
    }
    fp_.ext_vol[static_cast<std::size_t>(slot)] += volume;
  };
  const auto outside_group = [this](int o) {
    return lift_pos_[static_cast<std::size_t>(o)] != 0 ? kNoNode : proc_of(o);
  };
  // Replays the sequential probe's member-by-member charging (docs/DESIGN.md
  // §10, §13) against a fresh processor hosting the whole group, so the
  // accumulation order — and thus every FP sum — matches the sequential
  // path exactly.
  for (std::size_t ib = 0; ib < lift_group_.size(); ++ib) {
    const int m = lift_group_[ib];
    fp_.sum_w += tree.op(m).work;
    tree.visit_object_types(m, [&](int t) {
      if (std::find(fp_.types.begin(), fp_.types.end(), t) ==
          fp_.types.end()) {
        fp_.types.push_back(t);
        fp_.download += tree.catalog().type(t).rate();
      }
    });
    // Producer side: m ships to each distinct external destination
    // processor under the multicast rule.  Out-edges to group members are
    // co-located on the candidate: free, like the sequential assign — the
    // mask maps members to kNoNode (their proc is kNoNode under the open
    // baseline anyway).
    tree.visit_shipments(m, kNoNode, outside_group, [&](int q, MegaBytes mx) {
      slot_add(q, problem_.rho * mx);
    });
    // Consumer side: each distinct external assigned child ships to the
    // candidate; its charge steps from the max over *earlier* group
    // consumers to the max including m — summed over members this telescopes
    // to the deduped max, in the sequential accumulation order.  A shared
    // child's consumers outside the group never sit on the fresh candidate,
    // so they add nothing toward it.
    const auto& ch = tree.op(m).children;
    for (std::size_t a = 0; a < ch.size(); ++a) {
      const int c = ch[a];
      if (lift_pos_[static_cast<std::size_t>(c)] != 0) continue;
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
        const int pos = lift_pos_[static_cast<std::size_t>(e.dst)];
        if (pos == 0) continue;
        if (pos - 1 <= static_cast<int>(ib)) {
          after = std::max(after, e.delta);
          if (pos - 1 < static_cast<int>(ib)) before = std::max(before, e.delta);
        }
      }
      slot_add(q, problem_.rho * after - problem_.rho * before);
    }
  }
  fp_.ext_total = 0.0;
  for (MBps v : fp_.ext_vol) fp_.ext_total += v;

  // Every processor and link the placement touches besides the candidate
  // is judged by the capacity verdict against its pre-lift value, as the
  // literal probe would: drained sources at their baseline loads, external
  // neighbor processors with the edge volume the placement realizes toward
  // them.  The fresh candidate is never one of them, and its link to each
  // neighbor processor starts at zero, so it carries exactly that volume.
  const auto judge = [&](int o, MegaOps was_work, MBps was_nic) {
    const ProcState& p = proc(o);
    if (!p.live) return true;
    const int slot = ext_slot_[static_cast<std::size_t>(o)];
    const double ev = slot >= 0 ? fp_.ext_vol[static_cast<std::size_t>(slot)]
                                : 0.0;
    return proc_fits(p.cfg, p.work, p.download + p.comm + ev, was_work,
                     was_nic);
  };
  bool ok = true;
  for (std::size_t i = 0; i < snap_count_; ++i) {
    const ProcSnapshot& s = snaps_[i];
    ok = ok && judge(s.pid, s.work, s.download + s.comm);
  }
  for (std::size_t j = 0; j < fp_.ext_pid.size(); ++j) {
    const ProcState& q = proc(fp_.ext_pid[j]);
    ok = ok && fits_within(fp_.ext_vol[j], pp_links_.capacity());
    if (q.touch_epoch == txn_epoch_) continue;  // judged above
    ok = ok && judge(fp_.ext_pid[j], q.work, q.download + q.comm);
  }
  fp_.others_ok = ok && pp_links_.touched_no_worse();
  for (int q : fp_.ext_pid) ext_slot_[static_cast<std::size_t>(q)] = -1;
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
  const bool ok = touched_no_worse();
  commit_txn();
  return ok;
}

// --- repair API -------------------------------------------------------------

bool PlacementState::try_reconfigure(int pid, ProcessorConfig config) {
  assert(txn_mode_ == TxnMode::kNone);
  assert(is_live(pid));
  ProcState& p = proc(pid);
  if (!proc_fits(config, p.work, p.download + p.comm)) return false;
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
  const auto proc_of_op = [this](int o) { return proc_of(o); };
  problem_.tree->visit_shipments(op, pid, proc_of_op, [&](int q, MegaBytes) {
    proc(pid).comm += dv;
    proc(q).comm += dv;
    if (dv > 0.0) {
      pp_links_.add(pid, q, dv);
    } else {
      pp_links_.remove(pid, q, -dv);
    }
  });
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
  out.clear();
  for (int pid : live_ids_) {
    const ProcState& p = proc(pid);
    if (!proc_fits(p.cfg, p.work, p.download + p.comm)) out.push_back(pid);
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
