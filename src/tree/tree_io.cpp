#include "tree/tree_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace insp {

std::string to_dot(const OperatorTree& tree) {
  std::ostringstream out;
  out << "digraph cinsp_tree {\n  rankdir=BT;\n";
  for (const auto& n : tree.operators()) {
    out << "  n" << n.id << " [shape=box,label=\"n" << n.id
        << "\\nw=" << n.work << "\\nd=" << n.output_mb << "\"];\n";
  }
  for (std::size_t l = 0; l < tree.leaf_refs().size(); ++l) {
    const auto& leaf = tree.leaf_refs()[l];
    out << "  o" << l << " [shape=ellipse,label=\"o" << leaf.object_type
        << "\"];\n";
    out << "  o" << l << " -> n" << leaf.parent_op << " [label=\""
        << tree.catalog().type(leaf.object_type).size_mb << "MB\"];\n";
  }
  for (const auto& n : tree.operators()) {
    for (const OutEdge& e : n.out) {
      out << "  n" << n.id << " -> n" << e.dst << " [label=\"" << e.delta
          << "MB\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string to_text(const OperatorTree& tree, double alpha,
                    double work_scale) {
  const bool tree_shaped = tree.is_tree_shaped();
  std::ostringstream out;
  out.precision(17);
  out << "cinsp-tree " << (tree_shaped ? 1 : 2) << "\n";
  out << "alpha " << alpha << " work_scale " << work_scale << "\n";
  out << "objects " << tree.catalog().count() << "\n";
  for (const auto& t : tree.catalog().all()) {
    out << "object " << t.id << " " << t.size_mb << " " << t.freq_hz << "\n";
  }
  out << "operators " << tree.num_operators() << " root " << tree.root()
      << "\n";
  if (tree.is_forest()) {
    out << "roots";
    for (int r : tree.roots()) out << " " << r;
    out << "\n";
  }
  for (const auto& n : tree.operators()) {
    out << "op " << n.id << " parent " << n.parent() << "\n";
  }
  if (!tree_shaped) {
    for (const auto& n : tree.operators()) {
      for (std::size_t e = 1; e < n.out.size(); ++e) {
        out << "edge " << n.id << " " << n.out[e].dst << "\n";
      }
    }
  }
  for (const auto& l : tree.leaf_refs()) {
    out << "leaf " << l.parent_op << " " << l.object_type << "\n";
  }
  return out.str();
}

OperatorTree from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;

  auto fail = [](const std::string& why) -> void {
    throw std::invalid_argument("from_text: " + why);
  };

  if (!std::getline(in, line) || line.rfind("cinsp-tree", 0) != 0) {
    fail("missing 'cinsp-tree' header");
  }
  {
    std::istringstream hs(line);
    std::string magic;
    int version = 0;
    hs >> magic;
    if (hs >> version) {
      if (version < 1 || version > 2) {
        fail("unsupported format version " + std::to_string(version));
      }
    }
  }

  double alpha = 1.0, work_scale = 1.0;
  int declared_objects = -1, declared_ops = -1, root = kNoNode;
  std::vector<int> forest_roots;
  std::vector<ObjectType> types;
  // op id -> parent; extra out-edges beyond the first as (child, parent)
  // pairs; leaves as (op, type) pairs — all kept in file order.
  std::map<int, int> op_parent;
  std::vector<std::pair<int, int>> extra_edges;
  std::vector<std::pair<int, int>> leaves;

  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok)) continue;
    if (tok == "alpha") {
      std::string ws;
      if (!(ls >> alpha >> ws >> work_scale) || ws != "work_scale" ||
          !std::isfinite(alpha) || !positive_finite(work_scale)) {
        fail("bad alpha line");
      }
    } else if (tok == "objects") {
      if (!(ls >> declared_objects)) fail("bad objects line");
    } else if (tok == "object") {
      ObjectType t;
      if (!(ls >> t.id >> t.size_mb >> t.freq_hz) ||
          !positive_finite(t.size_mb) || !positive_finite(t.freq_hz)) {
        fail("bad object line");
      }
      types.push_back(t);
    } else if (tok == "operators") {
      std::string r;
      if (!(ls >> declared_ops >> r >> root) || r != "root") {
        fail("bad operators line");
      }
    } else if (tok == "roots") {
      int r;
      while (ls >> r) forest_roots.push_back(r);
      if (forest_roots.empty()) fail("bad roots line");
    } else if (tok == "op") {
      int id, parent;
      std::string p;
      if (!(ls >> id >> p >> parent) || p != "parent") fail("bad op line");
      if (!op_parent.emplace(id, parent).second) fail("duplicate op id");
    } else if (tok == "edge") {
      int child, parent;
      if (!(ls >> child >> parent)) fail("bad edge line");
      extra_edges.emplace_back(child, parent);
    } else if (tok == "leaf") {
      int op, type;
      if (!(ls >> op >> type)) fail("bad leaf line");
      leaves.emplace_back(op, type);
    } else {
      fail("unknown directive '" + tok + "'");
    }
  }

  if (declared_objects != static_cast<int>(types.size())) {
    fail("object count mismatch");
  }
  if (declared_ops != static_cast<int>(op_parent.size())) {
    fail("operator count mismatch");
  }
  // Ids must be dense 0..n-1 and sorted for the catalog constructor.
  std::sort(types.begin(), types.end(),
            [](const ObjectType& a, const ObjectType& b) { return a.id < b.id; });
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (types[i].id != static_cast<int>(i)) fail("object ids not dense");
  }

  // Forests and shared-subexpression DAGs are rebuilt directly (TreeBuilder
  // is single-root and single-parent-per-op at creation).  Note that w/delta
  // are recomputed from alpha: demand folding applied by
  // combine_applications or fold_shared_subexpressions is not preserved —
  // serialize the member applications individually when that matters.
  if (!forest_roots.empty() || !extra_edges.empty()) {
    const int n_ops = static_cast<int>(op_parent.size());
    std::vector<OperatorNode> ops(static_cast<std::size_t>(n_ops));
    for (int id = 0; id < n_ops; ++id) {
      auto it = op_parent.find(id);
      if (it == op_parent.end()) fail("op ids not dense");
      ops[static_cast<std::size_t>(id)].id = id;
      if (it->second != kNoNode) {
        if (it->second < 0 || it->second >= n_ops) fail("bad parent");
        ops[static_cast<std::size_t>(id)].out.push_back(
            OutEdge{it->second, 0.0});
        ops[static_cast<std::size_t>(it->second)].children.push_back(id);
      }
    }
    for (const auto& [child, parent] : extra_edges) {
      if (child < 0 || child >= n_ops || parent < 0 || parent >= n_ops) {
        fail("edge endpoint does not exist");
      }
      ops[static_cast<std::size_t>(child)].out.push_back(OutEdge{parent, 0.0});
      ops[static_cast<std::size_t>(parent)].children.push_back(child);
    }
    std::vector<LeafRef> leaf_refs;
    for (const auto& [op, type] : leaves) {
      if (op < 0 || op >= n_ops) fail("leaf attached to unknown op");
      const int lid = static_cast<int>(leaf_refs.size());
      leaf_refs.push_back(LeafRef{type, op});
      ops[static_cast<std::size_t>(op)].leaves.push_back(lid);
    }
    if (forest_roots.empty()) forest_roots.push_back(root);
    OperatorTree t(std::move(ops), std::move(leaf_refs),
                   std::move(forest_roots), ObjectCatalog(std::move(types)));
    if (auto err = t.validate()) fail("graph: " + *err);
    t.compute_work_and_outputs(alpha, work_scale);
    return t;
  }

  // Rebuild through TreeBuilder.  The writer emits parents before children
  // (TreeBuilder guarantees parent id < child id), so inserting in id order
  // preserves ids exactly and the round-trip is the identity.
  TreeBuilder b{ObjectCatalog(std::move(types))};
  if (root == kNoNode || op_parent.find(root) == op_parent.end()) {
    fail("missing root");
  }
  const int n_ops = static_cast<int>(op_parent.size());
  for (int id = 0; id < n_ops; ++id) {
    auto it = op_parent.find(id);
    if (it == op_parent.end()) fail("op ids not dense");
    const int parent = it->second;
    if (parent == kNoNode && id != root) {
      fail("non-root operator without parent");
    }
    if (parent != kNoNode && (parent < 0 || parent >= id)) {
      fail("op parent must precede child (ids are creation-ordered)");
    }
    b.add_operator(parent);
  }
  for (const auto& [op, type] : leaves) {
    if (op < 0 || op >= n_ops) fail("leaf attached to unknown op");
    b.add_leaf(op, type);
  }
  return b.build(alpha, work_scale);
}

void save_tree(const OperatorTree& tree, const std::string& path, double alpha,
               double work_scale) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_tree: cannot open " + path);
  f << to_text(tree, alpha, work_scale);
}

OperatorTree load_tree(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_tree: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return from_text(ss.str());
}

} // namespace insp
