// Seeded random instances built exactly per the paper's methodology (§5).
// The benches' sweep driver (bench/harness/sweep.hpp) and the repository
// benchmark (perfbench/) both draw their problems from here.
#pragma once

#include <cstdint>

#include "core/allocator.hpp"
#include "platform/server_distribution.hpp"
#include "tree/tree_generator.hpp"

namespace insp {

/// Everything a single allocation problem owns.  Problem::tree etc. point
/// into this object, so it must outlive the Problem it hands out.
class Instance {
 public:
  Instance(OperatorTree tree, Platform platform, PriceCatalog catalog,
           Throughput rho);

  Problem problem() const;
  const OperatorTree& tree() const { return tree_; }
  const Platform& platform() const { return platform_; }
  const PriceCatalog& catalog() const { return catalog_; }

 private:
  OperatorTree tree_;
  Platform platform_;
  PriceCatalog catalog_;
  Throughput rho_;
};

struct InstanceConfig {
  TreeGenConfig tree;
  ServerDistConfig servers;
  Throughput rho = 1.0;
  bool homogeneous_catalog = false;  ///< CONSTR-HOM instead of Table 1
};

/// Deterministic: the same (seed, config) always yields the same instance.
Instance make_instance(std::uint64_t seed, const InstanceConfig& config);

} // namespace insp
