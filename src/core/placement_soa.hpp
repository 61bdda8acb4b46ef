// Structure-of-arrays core for batched feasibility probes (docs/DESIGN.md
// §10).  The transactional PlacementState keeps its accounting in per-object
// AoS records (ProcState, a link map); that layout is ideal for one
// journaled move but makes the heuristics' inner loop — "which of these
// candidate processors can host this operator group?" — a chain of
// pointer-chasing probes, each paying the full journal/rollback toll.
//
// The batch protocol instead pays the journal ONCE per group:
//
//   1. the group is unassigned under a single kFull transaction (the
//      "journal baseline"), so the state temporarily reflects the world
//      without the group;
//   2. the per-processor capacities and loads are gathered into the flat
//      parallel vectors below, and the group's pid-independent footprint
//      (total work, distinct object types, external edge volume per
//      neighbor processor) is extracted;
//   3. every candidate is evaluated by `soa_probe_candidates` /
//      `soa_probe_configs` — a branch-light flat loop over parallel arrays
//      with no journaling, no data-structure mutation, and no per-candidate
//      allocation;
//   4. the baseline is rolled back bit-exactly.
//
// The kernels here are deliberately ignorant of PlacementState: they see
// only flat arrays, so they stay trivially vectorizable and unit-testable.
// PlacementState::can_place_batch / can_place_on_new_batch own the protocol
// (baseline, footprint extraction, slow-path for candidates that host group
// members) and guarantee verdicts element-wise identical to the scalar
// can_place / can_place_relaxed probes.
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.hpp"

namespace insp {

/// Flat per-processor capacity/load mirror, indexed by pid.  Entries for
/// dead processors are stale/unspecified — every reader indexes it with a
/// live pid.  Rebuilt from the AoS state before each batch (O(live
/// processors)); the scalar probe paths never maintain it.
struct PlacementSoA {
  std::vector<double> speed_cap;  ///< Mops/s of the pid's configuration
  std::vector<double> bw_cap;     ///< NIC capacity (MB/s)
  std::vector<double> work;       ///< baseline Σ w_i (rho applied at check)
  std::vector<double> nic;        ///< baseline download + comm (MB/s)
  /// Pre-transaction baselines for the relaxed verdict: equal to work/nic
  /// except on processors the journal baseline touched.
  std::vector<double> work0;
  std::vector<double> nic0;
  /// Dense scatter of the group's external edge volume into each processor
  /// (zero outside the footprint's ext set).
  std::vector<double> vol_to;

  void resize(std::size_t n) {
    speed_cap.resize(n);
    bw_cap.resize(n);
    work.resize(n);
    nic.resize(n);
    work0.resize(n);
    nic0.resize(n);
    vol_to.resize(n);
  }
};

/// Pid-independent description of one probe group, computed against the
/// journal baseline (group unassigned).  Everything a candidate's verdict
/// needs that does not depend on which candidate it is.
struct BatchFootprint {
  double rho = 1.0;
  double sum_w = 0.0;      ///< Σ w over the (deduplicated) group
  double ext_total = 0.0;  ///< Σ edge volume toward external neighbors
  double link_cap = 0.0;   ///< uniform processor-pair link capacity
  bool relaxed = false;
  /// Some external child of the group has more than one *assigned* consumer
  /// (shared subexpression, docs/DESIGN.md §13): it may already ship to an
  /// existing candidate, which this candidate-independent footprint cannot
  /// represent.  PlacementState::batch_probe resolves every lane through
  /// the sequential probe when set; always false on tree-shaped inputs.
  /// The fresh-processor path (soa_probe_configs) stays exact regardless —
  /// a new processor hosts no consumers.
  bool has_shared_child = false;

  /// Distinct processors hosting external neighbors of the group, with the
  /// total edge volume the placement would realize toward each.
  std::vector<int> ext_pid;
  std::vector<double> ext_vol;

  /// Distinct object types the group downloads (first-need order) + rates.
  std::vector<int> gtypes;
  std::vector<double> gtype_rate;

  /// Folded verdict over every touched processor other than the candidate
  /// (sources drained by the baseline, external neighbor processors with
  /// their edge volume added).  These checks are candidate-independent
  /// except that the candidate itself is judged by its own richer check —
  /// hence the count/pid pair: 0 failures passes every candidate, exactly
  /// one failure passes only the candidate that IS the failing processor,
  /// two or more failures fail every candidate.
  int others_failed = 0;
  int others_failed_pid = -1;

  /// Strict mode: every link the journal baseline touched still fits at its
  /// baseline value (re-added volume toward the candidate is re-checked per
  /// candidate; volumes are non-negative, so the conjunction is exact).
  /// Relaxed mode: vacuously true — the baseline only removes volume, so no
  /// touched link can exceed its pre-transaction value.
  bool base_links_ok = true;
};

/// Evaluates `num` live candidate processors in one flat pass.
///   dl_add[i]             — download rate candidate i would gain (the
///                           caller resolves object-type presence);
///   link_base[j*stride+i] — baseline usage of link (pids[i], ext_pid[j]);
///                           COLUMN-major so consecutive candidates read
///                           contiguously (stride is normally num);
///   link_pre [j*stride+i] — pre-transaction usage of the same link (relaxed
///                           verdicts only; may be null in strict mode);
///   skip[i]               — non-zero entries are left untouched (the caller
///                           resolves them through the scalar probe; may be
///                           null).
/// verdicts[i] is set to 0/1.
void soa_probe_candidates(const PlacementSoA& soa, const BatchFootprint& fp,
                          const int* pids, std::size_t num,
                          const double* dl_add, const double* link_base,
                          const double* link_pre, std::size_t stride,
                          const unsigned char* skip, unsigned char* verdicts);

/// Hypothetical-purchase variant: candidate i is a freshly bought, empty
/// processor with capacities (speed_caps[i], bw_caps[i]).  No processor id
/// is consumed; all candidate-side base loads and link usages are zero, so
/// the per-candidate check degenerates to two comparisons.
void soa_probe_configs(const BatchFootprint& fp, const double* speed_caps,
                       const double* bw_caps, std::size_t num,
                       unsigned char* verdicts);

} // namespace insp
