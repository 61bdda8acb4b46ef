#include "dynamic/workload_events.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tree/tree_io.hpp"

namespace insp {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::RhoChange: return "rho-change";
    case EventKind::ObjectRateChange: return "object-rate-change";
    case EventKind::ServerFailure: return "server-failure";
    case EventKind::ServerRecovery: return "server-recovery";
    case EventKind::AppArrival: return "app-arrival";
    case EventKind::AppDeparture: return "app-departure";
  }
  return "?";
}

namespace {

EventKind kind_from_string(const std::string& s) {
  for (EventKind k :
       {EventKind::RhoChange, EventKind::ObjectRateChange,
        EventKind::ServerFailure, EventKind::ServerRecovery,
        EventKind::AppArrival, EventKind::AppDeparture}) {
    if (s == to_string(k)) return k;
  }
  throw std::invalid_argument("trace: unknown event kind '" + s + "'");
}

/// Mirror of the replay-time world the generator keeps so every emitted
/// event's precondition holds at its position in the trace.
struct GenWorld {
  std::vector<int> live_apps;           // stable ids
  std::vector<Throughput> live_rhos;    // parallel to live_apps
  int next_app_id = 0;
  std::vector<bool> server_up;
  std::vector<Hertz> freq;              // current per-type frequency
};

int num_down(const GenWorld& w) {
  int n = 0;
  for (bool up : w.server_up) n += up ? 0 : 1;
  return n;
}

} // namespace

EventTrace generate_trace(Rng& rng, const TraceGenConfig& config,
                          int num_initial_apps, Throughput initial_rho,
                          const Platform& platform,
                          const ObjectCatalog& catalog) {
  GenWorld w;
  for (int a = 0; a < num_initial_apps; ++a) {
    w.live_apps.push_back(a);
    w.live_rhos.push_back(initial_rho);
  }
  w.next_app_id = num_initial_apps;
  w.server_up.assign(static_cast<std::size_t>(platform.num_servers()), true);
  for (const auto& t : catalog.all()) w.freq.push_back(t.freq_hz);

  EventTrace trace;
  trace.arrival_alpha = config.arrival_tree.alpha;
  trace.arrival_work_scale = config.arrival_tree.work_scale;
  double t = 0.0;
  for (int i = 0; i < config.num_events; ++i) {
    t += -config.mean_interval_s * std::log(1.0 - rng.canonical());

    // Weighted kind choice over the kinds whose precondition currently
    // holds; one rejection loop iteration per infeasible draw keeps the
    // distribution proportional to the weights of the feasible kinds.
    struct Cand {
      EventKind kind;
      double w;
      bool ok;
    };
    const int live = static_cast<int>(w.live_apps.size());
    const int down = num_down(w);
    const Cand cands[] = {
        {EventKind::RhoChange, config.w_rho_change, live > 0},
        {EventKind::ObjectRateChange, config.w_object_rate,
         catalog.count() > 0},
        {EventKind::ServerFailure, config.w_server_failure,
         down < config.max_servers_down &&
             platform.num_servers() - down > 1},
        {EventKind::ServerRecovery, config.w_server_recovery, down > 0},
        {EventKind::AppArrival, config.w_app_arrival,
         live < config.max_live_apps},
        {EventKind::AppDeparture, config.w_app_departure,
         live > config.min_live_apps},
    };
    double total = 0.0;
    for (const Cand& c : cands) total += c.ok ? c.w : 0.0;
    if (total <= 0.0) break;  // degenerate config: nothing can happen
    double draw = rng.uniform_real(0.0, total);
    EventKind kind = EventKind::RhoChange;
    for (const Cand& c : cands) {
      if (!c.ok) continue;
      if (draw < c.w) {
        kind = c.kind;
        break;
      }
      draw -= c.w;
    }

    WorkloadEvent ev;
    ev.time = t;
    ev.kind = kind;
    switch (kind) {
      case EventKind::RhoChange: {
        const std::size_t slot = rng.index(w.live_apps.size());
        const double factor =
            rng.uniform_real(config.rho_factor_lo, config.rho_factor_hi);
        double rho = w.live_rhos[slot] * factor;
        rho = std::min(std::max(rho, config.rho_min), config.rho_max);
        ev.app_id = w.live_apps[slot];
        ev.rho = rho;
        w.live_rhos[slot] = rho;
        break;
      }
      case EventKind::ObjectRateChange: {
        const int type = static_cast<int>(
            rng.index(static_cast<std::size_t>(catalog.count())));
        ev.object_type = type;
        ev.freq_hz = rng.uniform_real(config.freq_lo, config.freq_hi);
        w.freq[static_cast<std::size_t>(type)] = ev.freq_hz;
        break;
      }
      case EventKind::ServerFailure: {
        std::vector<int> up;
        for (std::size_t s = 0; s < w.server_up.size(); ++s) {
          if (w.server_up[s]) up.push_back(static_cast<int>(s));
        }
        ev.server = up[rng.index(up.size())];
        w.server_up[static_cast<std::size_t>(ev.server)] = false;
        break;
      }
      case EventKind::ServerRecovery: {
        std::vector<int> downs;
        for (std::size_t s = 0; s < w.server_up.size(); ++s) {
          if (!w.server_up[s]) downs.push_back(static_cast<int>(s));
        }
        ev.server = downs[rng.index(downs.size())];
        w.server_up[static_cast<std::size_t>(ev.server)] = true;
        break;
      }
      case EventKind::AppArrival: {
        ev.app_id = w.next_app_id++;
        ev.rho = rng.uniform_real(config.rho_min,
                                  std::max(config.rho_min, initial_rho));
        ev.arrival_tree = static_cast<int>(trace.arrival_trees.size());
        trace.arrival_trees.push_back(
            generate_random_tree(rng, config.arrival_tree, catalog));
        w.live_apps.push_back(ev.app_id);
        w.live_rhos.push_back(ev.rho);
        break;
      }
      case EventKind::AppDeparture: {
        const std::size_t slot = rng.index(w.live_apps.size());
        ev.app_id = w.live_apps[slot];
        w.live_apps.erase(w.live_apps.begin() + static_cast<long>(slot));
        w.live_rhos.erase(w.live_rhos.begin() + static_cast<long>(slot));
        break;
      }
    }
    trace.events.push_back(ev);
  }
  return trace;
}

// --- text round-trip --------------------------------------------------------
//
//   cinsp-trace 1
//   arrival_alpha <alpha>
//   tree <index>            (followed by the tree_io text, then `end_tree`)
//   ...
//   event <time> <kind> <app_id> <rho> <object_type> <freq_hz> <server> <tree>
//
// Doubles are printed with %.17g so the round-trip is value-exact.

std::string trace_to_text(const EventTrace& trace) {
  std::ostringstream out;
  char buf[64];
  out << "cinsp-trace 1\n";
  std::snprintf(buf, sizeof buf, "%.17g", trace.arrival_alpha);
  out << "arrival_alpha " << buf << "\n";
  std::snprintf(buf, sizeof buf, "%.17g", trace.arrival_work_scale);
  out << "arrival_work_scale " << buf << "\n";
  for (std::size_t i = 0; i < trace.arrival_trees.size(); ++i) {
    out << "tree " << i << "\n"
        << to_text(trace.arrival_trees[i], trace.arrival_alpha,
                   trace.arrival_work_scale)
        << "end_tree\n";
  }
  for (const WorkloadEvent& e : trace.events) {
    std::snprintf(buf, sizeof buf, "%.17g", e.time);
    out << "event " << buf << ' ' << to_string(e.kind) << ' ' << e.app_id;
    std::snprintf(buf, sizeof buf, " %.17g %d", e.rho, e.object_type);
    out << buf;
    std::snprintf(buf, sizeof buf, " %.17g", e.freq_hz);
    out << buf << ' ' << e.server << ' ' << e.arrival_tree << "\n";
  }
  return out.str();
}

EventTrace trace_from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  EventTrace trace;
  if (!std::getline(in, line) || line != "cinsp-trace 1") {
    throw std::invalid_argument("trace: missing 'cinsp-trace 1' header");
  }
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "arrival_alpha") {
      // The same ranges from_text enforces on a tree's alpha line.
      if (!(ls >> trace.arrival_alpha) || !std::isfinite(trace.arrival_alpha)) {
        throw std::invalid_argument("trace: bad arrival_alpha: " + line);
      }
    } else if (tag == "arrival_work_scale") {
      if (!(ls >> trace.arrival_work_scale) ||
          !positive_finite(trace.arrival_work_scale)) {
        throw std::invalid_argument("trace: bad arrival_work_scale: " + line);
      }
    } else if (tag == "tree") {
      std::size_t index = 0;
      ls >> index;
      if (index != trace.arrival_trees.size()) {
        throw std::invalid_argument("trace: tree indices out of order");
      }
      std::string tree_text, tl;
      bool closed = false;
      while (std::getline(in, tl)) {
        if (tl == "end_tree") {
          closed = true;
          break;
        }
        tree_text += tl;
        tree_text += '\n';
      }
      if (!closed) throw std::invalid_argument("trace: unterminated tree");
      trace.arrival_trees.push_back(from_text(tree_text));
    } else if (tag == "event") {
      WorkloadEvent e;
      std::string kind;
      ls >> e.time >> kind >> e.app_id >> e.rho >> e.object_type >>
          e.freq_hz >> e.server >> e.arrival_tree;
      if (ls.fail()) {
        throw std::invalid_argument("trace: malformed event line: " + line);
      }
      e.kind = kind_from_string(kind);
      // Structural range checks for the fields each kind will actually use
      // — a hand-edited index must fail here, not corrupt the replay.
      // (World-dependent ranges — server count, object-type count — are
      // checked again by DynamicAllocator::apply against the live world.)
      switch (e.kind) {
        case EventKind::RhoChange:
        case EventKind::AppDeparture:
          if (e.app_id < 0) {
            throw std::invalid_argument("trace: negative app id: " + line);
          }
          break;
        case EventKind::ObjectRateChange:
          if (e.object_type < 0 || e.freq_hz <= 0.0) {
            throw std::invalid_argument("trace: bad rate change: " + line);
          }
          break;
        case EventKind::ServerFailure:
        case EventKind::ServerRecovery:
          if (e.server < 0) {
            throw std::invalid_argument("trace: negative server: " + line);
          }
          break;
        case EventKind::AppArrival:
          if (e.app_id < 0 || e.arrival_tree < 0 || e.rho <= 0.0) {
            throw std::invalid_argument("trace: bad arrival: " + line);
          }
          break;
      }
      trace.events.push_back(e);
    } else {
      throw std::invalid_argument("trace: unknown line: " + line);
    }
  }
  for (const WorkloadEvent& e : trace.events) {
    if (e.kind == EventKind::AppArrival &&
        static_cast<std::size_t>(e.arrival_tree) >=
            trace.arrival_trees.size()) {
      throw std::invalid_argument("trace: arrival tree index out of range");
    }
  }
  return trace;
}

void save_trace(const EventTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << trace_to_text(trace);
  if (!out) throw std::runtime_error("write failed: " + path);
}

EventTrace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return trace_from_text(buf.str());
}

} // namespace insp
