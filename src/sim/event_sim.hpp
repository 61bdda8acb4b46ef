// Discrete-event validation of an allocation: simulates the paper's
// pipelined steady-state execution (each processor concurrently computes
// result t, sends intermediate results for t-1 and receives inputs for t+1,
// §2.3) with explicit per-period CPU budgets, card budgets and link budgets,
// token queues on every crossing edge, and backpressure.
//
// If the allocation truly sustains the target throughput rho, the simulated
// output settles at one result per period with pipeline latency equal to
// the processor-level pipeline depth; if some resource is over-subscribed,
// tokens back up and the measured output rate drops below rho — giving an
// executable cross-check of the closed-form flow analysis.
//
// simulate_allocation is the sparse pre-indexed core (DESIGN.md §8):
// crossing edges, link budgets and processor schedules are indexed once up
// front and the steady-state period loop does no heap allocation.  A
// test-only dense reference (tests/oracles/event_sim_dense.hpp) must agree
// with it bit-exactly on every input (tests/sim/sim_differential_test.cpp).
#pragma once

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "sim/sim_platform_view.hpp"

namespace insp {

struct EventSimConfig {
  /// The window the result is defined over, in periods (period = 1/rho
  /// seconds).  It fixes the verdict, not the work done: once the state
  /// repeats, the sparse core skips whole cycles the repeat already
  /// determines (EventSimResult::periods_simulated, DESIGN.md §8).
  int periods = 400;
  /// Periods excluded from the throughput measurement.  -1 (default) derives
  /// the warmup from the allocation's pipeline fill time — a crossing edge
  /// adds ~2 periods of latency, a co-located edge 1 — so deep pipelines are
  /// measured only after their first result can possibly appear.  A fixed
  /// value is honored as given; warmup >= periods is flagged degenerate and
  /// measured as warmup 0, and anything below -1 is flagged degenerate and
  /// auto-derived.
  int warmup_periods = -1;
  /// Bounded buffers: an operator may compute at most this many results
  /// beyond what its parent has consumed, so upstream operators cannot
  /// starve downstream ones of shared CPU when a resource is
  /// over-subscribed.  0 (default) derives the bound from the allocation's
  /// crossing-edge pipeline depth: a crossing hop has ~3 periods of
  /// compute/transfer/consume latency, plus slack that grows with the
  /// depth of the crossing pipeline to absorb FIFO transfer jitter.
  /// Negative values are flagged degenerate and auto-derived.
  int max_results_ahead = 0;
  /// The sustained verdict's tolerance: sustained iff the measured
  /// throughput reaches this fraction of the target rho.
  double sustained_fraction = 0.99;
};

struct EventSimResult {
  /// Results produced per second, measured after warmup.
  double achieved_throughput = 0.0;
  long long results_produced = 0;
  /// Period index at which the first final result appeared (-1: none).
  int first_output_period = -1;
  /// True when the achieved throughput reached the target (within the
  /// configured sustained_fraction).
  bool sustained = false;
  /// The config could not be honored as given: non-positive periods, an
  /// explicit warmup outside [0, periods), an allocation with unassigned
  /// operators, or a pipeline too deep to fill and measure within the
  /// configured periods.  The result is still computed over the clamped
  /// window but should not be trusted as a steady-state verdict.
  bool degenerate_config = false;
  /// The values actually used after auto-derivation/clamping.
  int warmup_periods_used = 0;
  int max_results_ahead_used = 0;
  /// Periods actually executed.  The simulator fast-forwards over whole
  /// steady-state cycles, so a plan that settles reports fewer than the
  /// window.  An output only: every other field is identical to a
  /// full-window run.
  int periods_simulated = 0;
};

/// Healthy platform (every server up, uniform links).
EventSimResult simulate_allocation(const Problem& problem,
                                   const Allocation& alloc,
                                   const EventSimConfig& config = {});

/// Against a degraded platform view (failed servers, per-pair link
/// bandwidths) — what scenario replay uses.
EventSimResult simulate_allocation(const Problem& problem,
                                   const Allocation& alloc,
                                   const SimPlatformView& view,
                                   const EventSimConfig& config = {});

} // namespace insp
