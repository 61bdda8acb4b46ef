// Mutable working state used by the operator-placement heuristics: the set
// of purchased processors, the (partial) operator assignment, and the
// incremental load accounting the feasibility checks run against.
//
// Semantics (docs/DESIGN.md §3, §13): edges to *unassigned* neighbors
// consume no bandwidth; a realized cross-processor edge is charged to both
// processor NICs and to the pairwise link.  A shared producer (several
// out-edges) sends its result ONCE per distinct destination processor —
// the charge to a destination is the max out-edge delta into it, not the
// sum (multicast dedup); for trees (single out-edge) this is exactly the
// historical per-edge charge.  Downloads are charged per processor and per
// distinct object type (two co-located operators share a download; the
// same type on two processors is downloaded twice, per the paper).
//
// `try_place` is transactional (docs/DESIGN.md §5): the move is applied
// incrementally under an undo journal, only the processors and pairwise
// links the move touched are re-validated, and on failure the journal is
// replayed in reverse — restoring the state bit for bit.  Validation and
// snapshotting therefore scale with the move's footprint, not the state
// (the one caveat: keeping unassigned_ops() sorted shifts up to
// O(#unassigned) ints per moved operator — trivial next to the deep copy
// plus full-state scan this replaces).  Heuristics can probe candidate
// moves without corrupting the state.
//
// Every probe — try_place, can_place, try_absorb, the fresh-processor
// verdicts and search_place — judges each touched capacity by one rule,
// no_worse (util/units.hpp), against its value before the move: a capacity
// that fit must still fit, and one already violated may stay violated as
// long as the move did not make its load grow.  On a feasible state that is
// plain feasibility of the touched set; on a degraded one (after a demand
// refresh, docs/DESIGN.md §8) it lets a move drain a violation without
// fixing it, and never lets a move create or grow one.
//
// `try_absorb` merges one processor into another with try_place's result
// but moves the smaller side: when the absorbed processor is the larger one
// the content flows the other way and the two processor slots swap, so the
// surviving label is always the target's (docs/DESIGN.md §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "net/bandwidth_ledger.hpp"

namespace insp {

class PlacementState {
 public:
  /// The Problem is a small struct of pointers; it is copied so callers may
  /// pass temporaries (the pointed-to tree/platform/catalog must outlive the
  /// state, as always).
  explicit PlacementState(Problem problem);

  const Problem& problem() const { return problem_; }

  // --- processor purchases -------------------------------------------------
  /// Buys a processor of the given configuration; returns its id.
  int buy(ProcessorConfig config);
  /// Sells a processor; it must be live and empty.
  void sell(int pid);
  bool is_live(int pid) const;
  const ProcessorConfig& config(int pid) const;
  /// Ids of live processors, ascending (purchase order).  The reference is
  /// invalidated by buy/sell and by any committed try_place or try_absorb
  /// (which may auto-sell an emptied source); copy it before mutating the
  /// state while iterating.
  const std::vector<int>& live_processors() const { return live_ids_; }
  int num_live_processors() const {
    return static_cast<int>(live_ids_.size());
  }

  // --- assignment ----------------------------------------------------------
  int proc_of(int op) const;  ///< kNoNode if unassigned
  const std::vector<int>& ops_on(int pid) const;
  int num_unassigned() const {
    return static_cast<int>(unassigned_ids_.size());
  }
  /// Ids of unassigned operators, ascending.  Same invalidation caveat as
  /// live_processors().
  const std::vector<int>& unassigned_ops() const { return unassigned_ids_; }

  /// Moves every operator in `ops` (currently assigned anywhere, or
  /// unassigned) onto live processor `pid`, then validates every capacity
  /// the move touched (CPU, NICs including neighbor processors, pairwise
  /// links).  On success the move is committed and any processor emptied by
  /// the move — other than `pid` — is sold automatically; on failure the
  /// undo journal restores the state exactly.  `ops` may alias ops_on() of a
  /// processor the move empties (it is copied internally).
  bool try_place(const std::vector<int>& ops, int pid);
  /// Single-operator form, allocation-free (no `{op}` temporary vector —
  /// the hot first-fit scans call this thousands of times per repair).
  bool try_place(int op, int pid);

  /// Merges processor `from` into processor `into`: exactly
  /// try_place(ops_on(from), into) — the union lands on `into` with into's
  /// label and configuration, ops_on(into) lists into's operators then
  /// from's, `from` is sold when it held operators, and a failure leaves the
  /// state bit-identical.  When `from` holds more operators and both share
  /// a configuration, the work runs the other way (docs/DESIGN.md §5): the
  /// smaller content moves onto `from` under the usual probe, then the two
  /// slots swap (loads, op lists, op_to_proc of the union, link endpoints),
  /// so a merge costs O(smaller side) charging plus O(union + active links)
  /// integer work.  Loads then differ from the forward move's only in
  /// floating-point summation order.  The verdicts agree on a feasible
  /// state; on a degraded one the swapped direction would judge the union
  /// against from's prior loads instead of into's, so callers absorb only
  /// on feasible states (every caller does).
  bool try_absorb(int from, int into);

  /// try_place without the commit: reports feasibility only.  Non-const on
  /// purpose: the probe applies the move and rolls it back bit-identically,
  /// so no change is observable afterwards, but the state (journal, loads,
  /// scratch) is mutated in between — probing a shared PlacementState from
  /// several threads is a data race; give each thread its own copy.
  bool can_place(const std::vector<int>& ops, int pid);
  bool can_place(int op, int pid);

  // --- fresh-processor verdicts (docs/DESIGN.md §10) ----------------------
  /// Hypothetical purchases: verdicts[i] is true iff buying
  /// a processor of configs[i] and try_place(ops, <new pid>) would succeed —
  /// evaluated without consuming a processor id (a failed buy+sell still
  /// burns an id; the config scans of the grouping technique used to leak
  /// one id per rejected configuration).
  void can_place_on_new_batch(const std::vector<int>& ops,
                              const std::vector<ProcessorConfig>& configs,
                              std::vector<unsigned char>& verdicts);

  // --- group lift (docs/DESIGN.md §10) -------------------------------------
  // The grouping technique (core/placement_common.hpp) asks "which
  // configuration could host this group on a fresh processor?" once per
  // growth step, and its group only ever grows by appending.  A lift keeps
  // the group unassigned under ONE open journal baseline: each step
  // unassigns only the new member, which replays exactly the unassign
  // sequence a per-step baseline would, so every verdict is bit-identical
  // to can_place_on_new_batch on the same group.  While a lift is open the
  // state is mid-transaction: end it before buy/sell/probes.
  // can_place_on_new_batch runs its own lift, so it discards the group and
  // its frontier.

  /// Starts an empty group and opens its journal baseline.
  void begin_group_lift();
  /// Appends `op` to the group (a member already present is ignored) and
  /// unassigns it under the baseline.  After end_group_lift(), the next
  /// call re-lifts the existing members before appending.
  void lift_member(int op);
  /// The group, in lift order.
  const std::vector<int>& lifted_group() const { return lift_group_; }
  /// verdicts[i] == can_place_on_new_batch(lifted_group(), configs)[i].
  /// Needs an open lift.  The reference is reused by the next call.
  const std::vector<unsigned char>& lifted_verdicts(
      const ProcessorConfig* configs, std::size_t n);
  /// Rolls the baseline back (every member returns to its processor); the
  /// group itself is kept.  No-op when no baseline is open.
  void end_group_lift();
  /// The group's outside neighbor with the most demanding connecting edge
  /// (the largest of parallel edges counts; ties: smaller id), or kNoNode
  /// when there is none.  `volume` receives the edge volume.  The frontier
  /// is kept incrementally across calls within one lift.
  int heaviest_group_neighbor(MBps* volume);

  // --- repair API (docs/DESIGN.md §8) --------------------------------------
  // A workload event mutates demands through the refresh hooks below, which
  // may leave the state infeasible.  Repair then drains the violations with
  // the ordinary probes above: their verdict accepts a move that shrinks a
  // violated capacity's load, and rejects one that creates or grows a
  // violation.

  /// Re-prices live processor `pid` to `config` (repair upgrade, or the
  /// downgrade-equivalent consolidation step on a live state).  Fails — and
  /// changes nothing — when the current loads do not fit the new
  /// configuration.  Loads are unaffected; only capacity changes.
  bool try_reconfigure(int pid, ProcessorConfig config);

  /// Incremental demand update: the caller has already changed operator
  /// `op`'s demands in the tree (OperatorTree::set_demand) and passes the
  /// *previous* values; the per-processor work and the comm/link charges of
  /// op's parent edge are adjusted by the delta.  O(degree of op).  May
  /// leave the state infeasible — query overloaded_processors()/links().
  void refresh_op_demand(int op, MegaOps old_work, MegaBytes old_output_mb);

  /// Incremental download-rate update: the caller has already changed the
  /// type's frequency in the object catalog and passes the previous
  /// per-result rate; every live processor downloading the type is
  /// adjusted.  O(live processors).
  void refresh_object_rate(int type, MBps old_rate);

  /// Live processors violating CPU or NIC capacity, ascending.
  std::vector<int> overloaded_processors() const;
  /// Out-parameter form for hot loops: `out` is cleared and refilled, so a
  /// caller-owned scratch vector makes the scan allocation-free.
  void overloaded_processors(std::vector<int>& out) const;
  /// Processor pairs whose realized traffic exceeds the link capacity.
  std::vector<std::pair<int, int>> overloaded_links() const;
  void overloaded_links(std::vector<std::pair<int, int>>& out) const;

  /// Expert hooks for exhaustive search (ilp::ExactSolver): raw assignment
  /// updates with incremental accounting and *no* auto-selling.  `op` must
  /// be unassigned (resp. assigned).  search_place keeps the assignment
  /// unconditionally and returns the probes' touched-set verdict — equal
  /// to feasible() whenever the pre-move state was feasible.  Because
  /// realized loads grow monotonically along a search path, a state that
  /// fails the verdict can be pruned together with all its extensions.
  bool search_place(int op, int pid);
  void search_unassign(int op) { unassign_op(op); }

  // --- loads (at the problem's rho) ----------------------------------------
  MegaOps cpu_demand(int pid) const;  ///< rho * sum w
  MBps download_load(int pid) const;
  MBps comm_load(int pid) const;
  MBps nic_load(int pid) const { return download_load(pid) + comm_load(pid); }
  /// Distinct object types downloaded by the processor (ascending).
  std::vector<int> download_types(int pid) const;
  /// Realized traffic between two live processors (both directions).
  MBps pair_traffic(int a, int b) const;

  /// Validates every live processor and link; true when all fit.
  bool feasible() const;

  Dollars total_cost() const;

  /// Finalizes into a dense Allocation (downloads left empty — filled by the
  /// server-selection phase).  Requires all operators assigned.
  Allocation to_allocation() const;

  /// Graph neighbors of `op`: calls fn(neighbor op, rho * edge volume) for
  /// each consumer (out-edges in order, so on trees the parent comes first)
  /// and then each operator child.  Allocation-free; defined here so it
  /// instantiates in every caller's TU.
  template <typename Fn>
  void visit_neighbors(int op, Fn&& fn) const {
    const OperatorTree& tree = *problem_.tree;
    const auto& n = tree.op(op);
    for (const OutEdge& e : n.out) {
      fn(e.dst, problem_.rho * e.delta);
    }
    for (int c : n.children) {
      fn(c, problem_.rho * tree.op(c).output_mb);
    }
  }

 private:
  struct ProcState {
    ProcessorConfig cfg;
    bool live = false;
    std::vector<int> ops;
    MegaOps work = 0.0;  // sum of w_i (rho applied at check time)
    /// (object type, #ops here needing it), sorted by type.
    std::vector<std::pair<int, int>> type_count;
    MBps download = 0.0;
    MBps comm = 0.0;  // crossing in+out charged to this card
    std::uint64_t touch_epoch = 0;  // == txn_epoch_ when touched this txn
  };

  /// Value snapshot of one touched processor, taken on first touch: the
  /// scalar loads always (the verdict's baseline), the op and type lists
  /// only in a full transaction.  Rollback restores it verbatim (bit-exact,
  /// unlike replaying -= deltas on doubles).
  struct ProcSnapshot {
    int pid = -1;
    MegaOps work = 0.0;
    MBps download = 0.0;
    MBps comm = 0.0;
    std::vector<int> ops;
    std::vector<std::pair<int, int>> type_count;
  };

  /// kTrack records the touched set and its scalar loads (enough to
  /// validate); kFull also snapshots the lists rollback needs.
  enum class TxnMode { kNone, kTrack, kFull };

  void begin_txn(TxnMode mode);
  void commit_txn();
  void rollback_txn();
  /// First-touch hook: snapshots `pid` into the touched set.  Must run
  /// before any mutation of the processor.
  void touch_proc(int pid);
  /// The processor fit rule: CPU load rho * work within the speed of `cfg`
  /// and NIC load within its bandwidth, each judged by no_worse against the
  /// loads before the move.  The default zero baseline makes it plain
  /// fits_within (a zero load fits any capacity).
  bool proc_fits(const ProcessorConfig& cfg, MegaOps work, MBps nic,
                 MegaOps was_work = 0.0, MBps was_nic = 0.0) const;
  /// The capacity verdict over the touched processors (against their
  /// snapshots) and the touched links.
  bool touched_no_worse() const;
  /// Opens a kFull transaction, moves `ops` onto `pid` (collecting the
  /// source processors in sell_candidates_) and judges the touched set.  A
  /// false verdict is already rolled back; on true the transaction stays
  /// open for the caller to commit or roll back.
  bool stage_move(const int* ops, std::size_t n, int pid);
  /// Shared body of try_place/can_place.  Takes a raw span so the
  /// single-op overloads pass &op without a temporary.
  bool probe(const int* ops, std::size_t n, int pid, bool commit);

  /// With a non-empty group lifted, extracts what a fresh processor must
  /// offer to host it into fp_.  Reads the open baseline without changing
  /// it.
  void footprint_from_baseline();

  void assign_op(int op, int pid);
  void unassign_op(int op);

  ProcState& proc(int pid) { return procs_[static_cast<std::size_t>(pid)]; }
  const ProcState& proc(int pid) const {
    return procs_[static_cast<std::size_t>(pid)];
  }

  Problem problem_;
  std::vector<ProcState> procs_;
  std::vector<int> op_to_proc_;
  LinkLedger pp_links_;
  std::vector<int> live_ids_;        // live pids, ascending
  std::vector<int> unassigned_ids_;  // unassigned ops, ascending

  // --- transaction scratch (reused across probes; no steady-state
  // allocation) ------------------------------------------------------------
  TxnMode txn_mode_ = TxnMode::kNone;
  std::uint64_t txn_epoch_ = 0;
  /// Pool; the first snap_count_ are the touched processors, in touch
  /// order.
  std::vector<ProcSnapshot> snaps_;
  std::size_t snap_count_ = 0;
  std::vector<std::pair<int, int>> moved_ops_;  // (op, previous pid)
  std::vector<int> scratch_ops_;
  std::vector<int> sell_candidates_;

  // --- group-lift scratch (docs/DESIGN.md §10; reused across lifts) -------
  /// The lifted group's demand toward a fresh processor, computed against
  /// the open baseline.  Every candidate is empty, so nothing here depends
  /// on which configuration is judged.
  struct GroupFootprint {
    MegaOps sum_w = 0.0;           // sum of w over the group
    std::vector<int> types;        // distinct object types, first-need order
    MBps download = 0.0;           // sum of their rates, in that order
    std::vector<int> ext_pid;      // processors hosting outside neighbors
    std::vector<MBps> ext_vol;     // edge volume realized toward each
    MBps ext_total = 0.0;
    bool others_ok = true;         // every other processor and link fits
  };
  GroupFootprint fp_;
  bool lift_open_ = false;             // a group lift holds the baseline open
  std::vector<int> lift_group_;        // deduplicated group, original order
  std::vector<int> lift_pos_;          // op -> position+1 in group, 0 = absent
  std::vector<std::pair<int, MBps>> frontier_;  // (neighbor, best edge) found
  std::vector<int> frontier_slot_;     // op -> index+1 in frontier_, 0 = absent
  std::size_t frontier_visited_ = 0;   // members whose neighbors are merged
  std::vector<int> ext_slot_;          // pid -> index into fp_.ext_*, -1 = none
  std::vector<unsigned char> lift_verdicts_;
};

} // namespace insp
