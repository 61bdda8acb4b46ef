// Shared world builder for the dynamic-layer tests: a small multi-app
// world on a generous platform, so single events exercise the repair paths
// without the whole instance tipping into infeasibility.
#pragma once

#include <vector>

#include "dynamic/workload_events.hpp"
#include "multi/multi_app.hpp"
#include "platform/server_distribution.hpp"
#include "tree/tree_generator.hpp"

namespace insp::dyntest {

struct DynWorld {
  std::vector<ApplicationSpec> apps;
  Platform platform;
  PriceCatalog catalog;
  ObjectCatalog objects;
};

/// `apps` applications of `n_per_app` operators each over a shared 6-type
/// catalog; every type on every one of 3 servers (no single point of
/// failure), paper price catalog.
inline DynWorld make_world(std::uint64_t seed, int apps = 2,
                           int n_per_app = 12, Throughput rho = 0.5) {
  Rng gen(seed);
  ObjectCatalog objects = ObjectCatalog::random(gen, 6, 5.0, 30.0, 0.5);
  TreeGenConfig tcfg;
  tcfg.num_operators = n_per_app;
  tcfg.alpha = 1.0;
  tcfg.num_object_types = 6;
  std::vector<ApplicationSpec> specs;
  for (int a = 0; a < apps; ++a) {
    specs.push_back({generate_random_tree(gen, tcfg, objects), rho});
  }
  std::vector<DataServer> servers;
  for (int s = 0; s < 3; ++s) {
    servers.push_back(DataServer{s, units::gigabytes_per_sec(10.0),
                                 {0, 1, 2, 3, 4, 5}});
  }
  Platform platform(std::move(servers), units::gigabytes_per_sec(1.0),
                    units::gigabytes_per_sec(1.0), 6);
  return DynWorld{std::move(specs), std::move(platform),
                  PriceCatalog::paper_default(), std::move(objects)};
}

inline TraceGenConfig small_trace_config(int events = 40) {
  TraceGenConfig tg;
  tg.num_events = events;
  tg.max_live_apps = 4;
  tg.rho_min = 0.05;
  tg.rho_max = 1.2;
  tg.arrival_tree.num_operators = 12;
  tg.arrival_tree.alpha = 1.0;
  tg.arrival_tree.num_object_types = 6;
  return tg;
}

/// A hand-steered world: one object type with a negligible download rate,
/// one processor configuration (100 MegaOps/s CPU, 100 MB/s NIC) and links
/// and server cards that never bind, so every placement verdict in the
/// scenarios built on it comes down to CPU and NIC.
struct HandWorld {
  ObjectCatalog objects{{ObjectType{0, 1.0, 0.1}}};
  Platform platform{{DataServer{0, 1e6, {0}}, DataServer{1, 1e6, {0}}},
                    1e6, 1e6, 1};
  PriceCatalog catalog =
      PriceCatalog::homogeneous(CpuModel{100.0, 0.0}, NicModel{100.0, 0.0},
                                1000.0);

  /// One application over `objects`: operator i has parent parents[i]
  /// (kNoNode for the root, and every parent precedes its children), work
  /// work[i] and output delta[i] at rho 1; every operator without children
  /// reads one object.
  OperatorTree tree(const std::vector<int>& parents,
                    const std::vector<MegaOps>& work,
                    const std::vector<MegaBytes>& delta) const {
    TreeBuilder b(objects);
    std::vector<bool> has_child(parents.size(), false);
    for (int p : parents) {
      if (p != kNoNode) has_child[static_cast<std::size_t>(p)] = true;
    }
    for (int p : parents) b.add_operator(p);
    for (std::size_t i = 0; i < parents.size(); ++i) {
      if (!has_child[i]) b.add_leaf(static_cast<int>(i), 0);
    }
    OperatorTree t = b.build(1.0);
    for (std::size_t i = 0; i < parents.size(); ++i) {
      t.set_demand(static_cast<int>(i), work[i], delta[i]);
    }
    return t;
  }
};

} // namespace insp::dyntest
