#include "multi/multi_app.hpp"

#include <cmath>
#include <stdexcept>

namespace insp {

namespace {

void require_same_catalog(const ObjectCatalog& a, const ObjectCatalog& b) {
  if (a.count() != b.count()) {
    throw std::invalid_argument(
        "combine_applications: applications use different object catalogs");
  }
  for (int t = 0; t < a.count(); ++t) {
    if (std::abs(a.type(t).size_mb - b.type(t).size_mb) > 1e-9 ||
        std::abs(a.type(t).freq_hz - b.type(t).freq_hz) > 1e-12) {
      throw std::invalid_argument(
          "combine_applications: object type " + std::to_string(t) +
          " differs between applications");
    }
  }
}

} // namespace

CombinedApplication combine_applications(
    const std::vector<ApplicationSpec>& apps) {
  if (apps.empty()) {
    throw std::invalid_argument("combine_applications: no applications");
  }
  for (const auto& app : apps) {
    if (app.tree.num_operators() == 0) {
      throw std::invalid_argument("combine_applications: empty application");
    }
    if (app.rho <= 0.0) {
      throw std::invalid_argument(
          "combine_applications: non-positive throughput");
    }
    require_same_catalog(apps.front().tree.catalog(), app.tree.catalog());
  }

  CombinedApplication out;
  std::vector<OperatorNode> ops;
  std::vector<LeafRef> leaves;
  std::vector<int> roots;

  for (std::size_t a = 0; a < apps.size(); ++a) {
    const OperatorTree& tree = apps[a].tree;
    const double rho = apps[a].rho;
    const int op_offset = static_cast<int>(ops.size());
    const int leaf_offset = static_cast<int>(leaves.size());
    out.op_offset_of_app.push_back(op_offset);

    for (const auto& n : tree.operators()) {
      OperatorNode copy = n;
      copy.id = n.id + op_offset;
      for (OutEdge& e : copy.out) e.dst += op_offset;
      for (int& c : copy.children) c += op_offset;
      for (int& l : copy.leaves) l += leaf_offset;
      // Fold the application's throughput into its demands: constraint (1)
      // charges rho*w, (2)/(5) charge rho*delta; the folded forest is then
      // solved at rho = 1.  Download rates are not folded (eq. rate_k).
      copy.work = rho * n.work;
      copy.output_mb = rho * n.output_mb;
      for (OutEdge& e : copy.out) e.delta = rho * e.delta;
      ops.push_back(std::move(copy));
    }
    for (const auto& l : tree.leaf_refs()) {
      leaves.push_back(LeafRef{l.object_type, l.parent_op + op_offset});
    }
    for (int r : tree.roots()) {
      roots.push_back(r + op_offset);
      out.root_of_app.push_back(r + op_offset);
    }
  }

  out.forest = OperatorTree(std::move(ops), std::move(leaves),
                            std::move(roots), apps.front().tree.catalog());
  if (auto err = out.forest.validate()) {
    throw std::invalid_argument("combine_applications: " + *err);
  }
  return out;
}

AllocationOutcome allocate_joint(const CombinedApplication& combined,
                                 const Platform& platform,
                                 const PriceCatalog& catalog,
                                 HeuristicKind kind, Rng& rng,
                                 const AllocatorOptions& options) {
  Problem problem;
  problem.tree = &combined.forest;
  problem.platform = &platform;
  problem.catalog = &catalog;
  problem.rho = 1.0;  // folded
  return allocate(problem, kind, rng, options);
}

SeparateAllocationOutcome allocate_separate(
    const std::vector<ApplicationSpec>& apps, const Platform& platform,
    const PriceCatalog& catalog, HeuristicKind kind, Rng& rng,
    const AllocatorOptions& options) {
  SeparateAllocationOutcome out;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    Problem problem;
    problem.tree = &apps[a].tree;
    problem.platform = &platform;
    problem.catalog = &catalog;
    problem.rho = apps[a].rho;
    AllocationOutcome one = allocate(problem, kind, rng, options);
    if (!one.success) {
      out.failure_reason = "application " + std::to_string(a) + ": " +
                           one.failure_reason;
      out.per_app.push_back(std::move(one));
      return out;
    }
    out.total_cost += one.cost;
    out.total_processors += one.num_processors;
    out.per_app.push_back(std::move(one));
  }
  out.success = true;
  return out;
}

} // namespace insp
