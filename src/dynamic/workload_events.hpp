// Dynamic-workload event model (docs/DESIGN.md §8).  The paper allocates
// once for a fixed target throughput; in practice throughput targets drift,
// object update rates fluctuate, purchased servers fail, and applications
// come and go.  A WorkloadEvent is one such change; an EventTrace is a
// time-ordered sequence of them replayed against a live allocation by the
// repair engine (repair_allocator.hpp / scenario_engine.hpp).
//
// Traces are deterministic artifacts: generate_trace is a pure function of
// (rng, config, initial world), and save/load round-trips a trace through a
// line-oriented text format (arrival trees serialized via tree/tree_io) so
// benchmark traces can be bundled and replayed bit-identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "multi/multi_app.hpp"
#include "platform/platform.hpp"
#include "tree/tree_generator.hpp"

namespace insp {

enum class EventKind {
  RhoChange,        ///< application `app_id` now targets throughput `rho`
  ObjectRateChange, ///< object `object_type` now updates at `freq_hz`
  ServerFailure,    ///< data server `server` goes down (its replicas with it)
  ServerRecovery,   ///< data server `server` comes back
  AppArrival,       ///< `arrival_trees[arrival_tree]` arrives, targeting `rho`
  AppDeparture,     ///< application `app_id` departs
};

const char* to_string(EventKind kind);

struct WorkloadEvent {
  double time = 0.0;  ///< seconds since trace start; non-decreasing
  EventKind kind = EventKind::RhoChange;
  int app_id = -1;       ///< RhoChange / AppDeparture / AppArrival (new id)
  Throughput rho = 1.0;  ///< RhoChange / AppArrival
  int object_type = -1;  ///< ObjectRateChange
  Hertz freq_hz = 0.0;   ///< ObjectRateChange
  int server = -1;       ///< ServerFailure / ServerRecovery
  int arrival_tree = -1; ///< AppArrival: index into EventTrace::arrival_trees
};

struct EventTrace {
  std::vector<WorkloadEvent> events;       ///< non-decreasing time
  std::vector<OperatorTree> arrival_trees; ///< bodies of AppArrival events
  double arrival_alpha = 1.0;      ///< alpha the arrival trees were built with
  double arrival_work_scale = 1.0; ///< work_scale ditto (both serialized)
};

/// Relative weights of the event kinds in a generated trace; a kind whose
/// precondition cannot be met at some point in the trace (no app left to
/// depart, every server up, ...) is skipped for that draw.
struct TraceGenConfig {
  int num_events = 200;
  double mean_interval_s = 10.0;  ///< exponential inter-event gaps

  double w_rho_change = 4.0;
  double w_object_rate = 2.0;
  double w_server_failure = 1.0;
  double w_server_recovery = 1.0;
  double w_app_arrival = 1.0;
  double w_app_departure = 1.0;

  /// RhoChange multiplies the app's current rho by a factor drawn uniformly
  /// from [factor_lo, factor_hi], clamped to [rho_min, rho_max].
  double rho_factor_lo = 0.6;
  double rho_factor_hi = 1.5;
  Throughput rho_min = 0.01;
  Throughput rho_max = 4.0;

  /// ObjectRateChange draws a new frequency uniformly from [freq_lo, freq_hi].
  Hertz freq_lo = 0.1;
  Hertz freq_hi = 1.0;

  /// World limits the generator respects.
  int max_live_apps = 6;
  int min_live_apps = 1;
  int max_servers_down = 1;  ///< keep at least replication alive

  /// Shape of arriving applications (catalog is inherited from the world).
  TreeGenConfig arrival_tree;
};

/// Generates a trace against an initial world of `num_initial_apps`
/// applications (ids 0..n-1, each at `initial_rho`) over `platform`, whose
/// object catalog is `catalog`.  Deterministic given the Rng state.  The
/// generator tracks live apps / down servers so every event's precondition
/// holds when the trace is replayed in order from the same initial world.
EventTrace generate_trace(Rng& rng, const TraceGenConfig& config,
                          int num_initial_apps, Throughput initial_rho,
                          const Platform& platform,
                          const ObjectCatalog& catalog);

/// Text round-trip (format documented in workload_events.cpp).  Throws
/// std::invalid_argument on malformed input, including a non-finite
/// arrival_alpha or an arrival_work_scale that is not finite and > 0.
std::string trace_to_text(const EventTrace& trace);
EventTrace trace_from_text(const std::string& text);

/// File helpers (throw std::runtime_error on IO failure).
void save_trace(const EventTrace& trace, const std::string& path);
EventTrace load_trace(const std::string& path);

} // namespace insp
