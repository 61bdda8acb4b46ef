#include "harness/chaos_world.hpp"

#include <algorithm>

#include "platform/server_distribution.hpp"
#include "tree/tree_generator.hpp"

namespace insp::benchx {

ChaosWorld make_chaos_world(std::uint64_t seed, const ChaosWorldScale& scale,
                            const ChaosGenConfig& chaos) {
  Rng gen(seed ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(
                                              scale.n + 131 * scale.apps)));
  ObjectCatalog objects = ObjectCatalog::random(gen, 15, 5.0, 30.0, 0.5);
  TreeGenConfig tcfg;
  tcfg.num_operators = scale.n / scale.apps;
  tcfg.alpha = 1.0;
  tcfg.num_object_types = 15;
  std::vector<ApplicationSpec> apps;
  for (int a = 0; a < scale.apps; ++a) {
    apps.push_back({generate_random_tree(gen, tcfg, objects), /*rho=*/0.5});
  }
  ServerDistConfig dist;
  dist.replication_prob = 0.4;
  std::vector<std::vector<int>> hosted = distribute_objects(gen, dist);
  // Patch every type onto >= 3 servers: the widest chaos fault downs two
  // servers together, and the world must keep a reachable replica of every
  // type through it.
  for (int t = 0; t < dist.num_object_types; ++t) {
    std::vector<int> holders;
    for (int s = 0; s < dist.num_servers; ++s) {
      for (int ht : hosted[static_cast<std::size_t>(s)]) {
        if (ht == t) holders.push_back(s);
      }
    }
    while (holders.size() < 3) {
      int extra = static_cast<int>(
          gen.index(static_cast<std::size_t>(dist.num_servers)));
      while (std::find(holders.begin(), holders.end(), extra) !=
             holders.end()) {
        extra = (extra + 1) % dist.num_servers;
      }
      holders.push_back(extra);
      auto& list = hosted[static_cast<std::size_t>(extra)];
      list.insert(std::lower_bound(list.begin(), list.end(), t), t);
    }
  }
  Platform platform =
      Platform::paper_default(std::move(hosted), dist.num_object_types);

  ChaosTrace trace = generate_chaos(gen, chaos, platform.num_servers());
  return ChaosWorld{std::move(apps), std::move(platform),
                    PriceCatalog::paper_default(), std::move(trace)};
}

ChaosGenConfig chaos_smoke_config(ChaosClass cls) {
  ChaosGenConfig cfg;
  cfg.num_faults = 4;
  cfg.w_rack = cls == ChaosClass::RackFailure ? 1.0 : 0.0;
  cfg.w_flap = cls == ChaosClass::Flapping ? 1.0 : 0.0;
  cfg.w_brownout = cls == ChaosClass::Brownout ? 1.0 : 0.0;
  cfg.w_partition = cls == ChaosClass::Partition ? 1.0 : 0.0;
  return cfg;
}

ChaosWorldScale chaos_smoke_scale() { return ChaosWorldScale{40, 2}; }

} // namespace insp::benchx
