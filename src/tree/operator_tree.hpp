// The application model: a DAG of operators whose leaves are basic
// objects.  The paper's model (§2.1) is a binary *tree* — each internal
// node n_i combines the outputs of its <= 2 children (operators and/or
// basic objects), requires w_i operations per result and emits delta_i MB
// per result.  Following the paper's §6 remark on common-subexpression
// reuse (and the DAG-native formulation of Eidenbenz & Locher), the model
// here generalizes the single implicit child->parent edge into an explicit
// out-edge list: an operator's output may feed several consumers, each
// out-edge carrying its own delta.  A tree is the degenerate case where
// every out-edge list has at most one entry; all tree-era behavior is
// bit-identical in that case.
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "tree/object.hpp"
#include "util/units.hpp"

namespace insp {

/// Index of "no node".
inline constexpr int kNoNode = -1;

/// One leaf occurrence in the tree: a reference to a basic-object type.
/// Distinct leaves may reference the same type (shared objects).
struct LeafRef {
  int object_type = -1;  ///< index into the ObjectCatalog
  int parent_op = -1;    ///< the al-operator this leaf feeds
};

/// One directed edge from a producer operator to a consumer ("parent").
/// `delta` is the MB shipped to THIS consumer per result; for tree-shaped
/// applications every out-edge delta equals the node's output_mb.
struct OutEdge {
  int dst = kNoNode;       ///< consumer operator id
  MegaBytes delta = 0.0;   ///< per-result MB carried by this edge
};

struct OperatorNode {
  int id = -1;
  std::vector<OutEdge> out;        ///< consumers; empty for roots
  std::vector<int> children;       ///< Ch(i): operator inputs, size <= 2
  std::vector<int> leaves;         ///< Leaf(i): leaf indices, size <= 2
  MegaOps work = 0.0;              ///< w_i
  MegaBytes output_mb = 0.0;       ///< delta_i, size of one produced result

  /// Tree-compat accessor: Par(i) = the first consumer, kNoNode for roots.
  /// Meaningful only on tree-shaped graphs (out.size() <= 1 everywhere).
  int parent() const { return out.empty() ? kNoNode : out.front().dst; }
  bool is_shared() const { return out.size() > 1; }

  /// al-operator ("almost leaf"): needs >= 1 basic object (paper §2.1).
  bool is_al_operator() const { return !leaves.empty(); }
  int arity() const {
    return static_cast<int>(children.size() + leaves.size());
  }
};

/// Immutable-after-build operator DAG plus its object catalog.
///
/// Also models *forests* (several independent graphs over one catalog):
/// every root is listed in roots(); root() returns the first.  Forests
/// arise in the multi-application extension (multi/multi_app.hpp), where
/// each member is one application — and, after
/// fold_shared_subexpressions (multi/subexpression_fold.hpp), members may
/// share operators across application boundaries.
class OperatorDag {
 public:
  OperatorDag() = default;
  OperatorDag(std::vector<OperatorNode> ops, std::vector<LeafRef> leaves,
              int root, ObjectCatalog catalog);
  /// Forest constructor: one entry in `roots` per member graph.
  OperatorDag(std::vector<OperatorNode> ops, std::vector<LeafRef> leaves,
              std::vector<int> roots, ObjectCatalog catalog);

  int num_operators() const { return static_cast<int>(ops_.size()); }
  int num_leaves() const { return static_cast<int>(leaves_.size()); }
  int root() const { return roots_.empty() ? kNoNode : roots_.front(); }
  const std::vector<int>& roots() const { return roots_; }
  bool is_forest() const { return roots_.size() > 1; }

  /// True when every operator has at most one consumer (the paper's tree
  /// model).  Every tree-era code path is bit-identical on such graphs.
  bool is_tree_shaped() const;
  /// Total number of operator->operator edges.
  int num_edges() const;

  const OperatorNode& op(int i) const { return ops_[static_cast<std::size_t>(i)]; }
  const LeafRef& leaf(int l) const { return leaves_[static_cast<std::size_t>(l)]; }
  const std::vector<OperatorNode>& operators() const { return ops_; }
  const std::vector<LeafRef>& leaf_refs() const { return leaves_; }
  const ObjectCatalog& catalog() const { return catalog_; }
  ObjectCatalog& mutable_catalog() { return catalog_; }

  /// Overwrites operator `i`'s demands in place (dynamic workloads: per-app
  /// rho re-folding scales w and delta; see src/dynamic/).  The structure
  /// stays immutable — only the demand numbers change.  Every out-edge
  /// delta is overwritten with the new output_mb (uniform multicast), so
  /// incremental accounting (PlacementState::refresh_op_demand) can assume
  /// the previous deltas were uniform too.
  void set_demand(int i, MegaOps work, MegaBytes output_mb) {
    auto& n = ops_[static_cast<std::size_t>(i)];
    n.work = work;
    n.output_mb = output_mb;
    for (OutEdge& e : n.out) e.delta = output_mb;
  }

  /// Distinct object types operator i needs (deduplicated; an operator with
  /// two leaves of the same type needs that type once).
  std::vector<int> object_types_of(int i) const;

  /// Allocation-free object_types_of(): calls fn(type) for each distinct
  /// type, in the same first-occurrence order.  Operators have at most a
  /// handful of leaves, so the quadratic dedup is cheaper than any set —
  /// and the placement probes call this on every assign/unassign, where a
  /// returned vector would be the hot path's only heap traffic.
  template <typename Fn>
  void visit_object_types(int i, Fn&& fn) const {
    const auto& ls = op(i).leaves;
    for (std::size_t a = 0; a < ls.size(); ++a) {
      const int t = leaf(ls[a]).object_type;
      bool seen = false;
      for (std::size_t b = 0; b < a; ++b) {
        if (leaf(ls[b]).object_type == t) {
          seen = true;
          break;
        }
      }
      if (!seen) fn(t);
    }
  }

  /// The multicast charging rule (docs/DESIGN.md §13), defined once: op i
  /// ships its result once per distinct destination processor, sized by
  /// the largest out-edge delta into it.  Calls fn(q, max_delta) for each
  /// destination q = proc_of(dst), in first-occurrence order, skipping
  /// q == kNoNode (unassigned or masked consumers) and q == from
  /// (co-located ones).  On trees this is the lone child->parent edge.
  /// Allocation-free for the same reason as visit_object_types.
  template <typename ProcOf, typename Fn>
  void visit_shipments(int i, int from, ProcOf&& proc_of, Fn&& fn) const {
    const auto& out = op(i).out;
    for (std::size_t a = 0; a < out.size(); ++a) {
      const int q = proc_of(out[a].dst);
      if (q == kNoNode || q == from) continue;
      bool seen = false;
      for (std::size_t b = 0; b < a; ++b) {
        if (proc_of(out[b].dst) == q) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      MegaBytes mx = out[a].delta;
      for (std::size_t b = a + 1; b < out.size(); ++b) {
        if (proc_of(out[b].dst) == q) mx = std::max(mx, out[b].delta);
      }
      fn(q, mx);
    }
  }

  /// Indices of al-operators (operators with >= 1 leaf child).
  std::vector<int> al_operators() const;

  /// Operator ids in true topological order, consumers ("parents") before
  /// producers: every node appears after all operators it feeds.  On trees
  /// this reduces exactly to the historical BFS from the roots.  Returns a
  /// short list when the graph has a cycle or unreachable component
  /// (validate() rejects both).
  std::vector<int> top_down_order() const;
  /// Reverse: every node appears after all its operator children.
  std::vector<int> bottom_up_order() const;

  /// Recompute w_i and delta_i bottom-up for the given alpha:
  ///   input mass  m_i = sum(leaf sizes) + sum(child outputs)
  ///   w_i      = work_scale * m_i^alpha   [Mops]
  ///   delta_i  = m_i                       [MB]
  /// (paper §5 simulation methodology; work_scale defaults to 1).  Shared
  /// nodes are computed once; every out-edge delta is set to the node's
  /// output_mb.  NOTE: this clobbers demand folding (per-app rho scaling
  /// and fold-merged maxima) — do not call it on a folded forest/DAG.
  void compute_work_and_outputs(double alpha, double work_scale = 1.0);

  /// delta of one result produced by `child_op` (tree-compat: on trees
  /// this is the volume of the unique child->parent edge).
  MegaBytes edge_volume(int child_op) const {
    return op(child_op).output_mb;
  }

  /// Structural invariants:
  ///  - ids dense; out-edge/children lists mutually consistent (with
  ///    matching multiplicities — parallel edges are allowed and model a
  ///    consumer reading the same shared input twice)
  ///  - |Leaf(i)| + |Ch(i)| in [1, 2] for every operator (paper's binary
  ///    in-arity; out-degree is unbounded)
  ///  - declared roots are exactly the operators with no out-edges
  ///  - acyclic and fully reachable (Kahn's algorithm completes)
  ///  - every leaf references a valid object type and its parent op
  /// Returns std::nullopt if valid, otherwise a description of the issue.
  std::optional<std::string> validate() const;

 private:
  std::vector<OperatorNode> ops_;
  std::vector<LeafRef> leaves_;
  std::vector<int> roots_;
  ObjectCatalog catalog_;
};

/// Historical name: the tree is the degenerate (out-degree <= 1) DAG.
using OperatorTree = OperatorDag;

/// Incremental construction helper used by generators, IO, and tests.
class TreeBuilder {
 public:
  explicit TreeBuilder(ObjectCatalog catalog) : catalog_(std::move(catalog)) {}

  /// Adds an operator; parent == kNoNode makes it the root (exactly one).
  int add_operator(int parent);
  /// Attaches a leaf of the given object type to operator `op`.
  int add_leaf(int op, int object_type);
  /// Adds an extra edge child->parent (both must exist): the child's output
  /// also feeds `parent`, making the graph a shared-subexpression DAG.
  /// Edge deltas are filled by build()'s compute_work_and_outputs.
  void add_edge(int child, int parent);

  /// Finalize; computes w/delta with the given alpha and validates.
  /// Throws std::invalid_argument when the structure is not a valid graph.
  OperatorTree build(double alpha, double work_scale = 1.0);

 private:
  std::vector<OperatorNode> ops_;
  std::vector<LeafRef> leaves_;
  int root_ = kNoNode;
  ObjectCatalog catalog_;
};

} // namespace insp
