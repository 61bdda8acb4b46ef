#include "bench_support/experiment.hpp"

namespace insp {

Instance::Instance(OperatorTree tree, Platform platform, PriceCatalog catalog,
                   Throughput rho)
    : tree_(std::move(tree)),
      platform_(std::move(platform)),
      catalog_(std::move(catalog)),
      rho_(rho) {}

Problem Instance::problem() const {
  Problem p;
  p.tree = &tree_;
  p.platform = &platform_;
  p.catalog = &catalog_;
  p.rho = rho_;
  return p;
}

Instance make_instance(std::uint64_t seed, const InstanceConfig& config) {
  Rng master(seed);
  Rng tree_rng = master.split();
  Rng plat_rng = master.split();

  ServerDistConfig servers = config.servers;
  servers.num_object_types = config.tree.num_object_types;

  OperatorTree tree = generate_random_tree(tree_rng, config.tree);
  Platform platform = make_paper_platform(plat_rng, servers);
  PriceCatalog catalog = config.homogeneous_catalog
                             ? PriceCatalog::homogeneous()
                             : PriceCatalog::paper_default();
  return Instance(std::move(tree), std::move(platform), std::move(catalog),
                  config.rho);
}

} // namespace insp
