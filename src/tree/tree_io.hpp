// Serialization: Graphviz DOT export for inspection, and a line-oriented
// text format with full round-trip (used to pin test fixtures and to let
// examples load hand-written applications).
#pragma once

#include <iosfwd>
#include <string>

#include "tree/operator_tree.hpp"

namespace insp {

/// Graphviz DOT (operators as boxes, leaves as ellipses labeled with their
/// object type, edge labels = delta volumes).
std::string to_dot(const OperatorTree& tree);

/// Text format (version 1, written for every tree-shaped graph so existing
/// fixtures stay byte-identical):
///   cinsp-tree 1
///   objects <count>
///   object <id> <size_mb> <freq_hz>
///   operators <count> root <id>
///   op <id> parent <id|-1>
///   leaf <op_id> <object_type>
///   alpha <alpha> work_scale <scale>
/// Version 2 is emitted only when some operator has more than one consumer;
/// it adds one line per out-edge beyond the first:
///   cinsp-tree 2
///   ...
///   edge <child_id> <parent_id>
/// (a repeated edge line is a parallel edge: the consumer reads that shared
/// input twice).  Edge deltas are recomputed from alpha on load, like all
/// demands.  Lines may appear in any order within their section; `#` starts
/// a comment.  The parser accepts both versions; v1 files parse unchanged.
std::string to_text(const OperatorTree& tree, double alpha,
                    double work_scale = 1.0);

/// Parses the text format; throws std::invalid_argument on malformed input
/// and on out-of-range numbers: an object size or frequency, or the
/// work_scale, that is not finite and > 0, or a non-finite alpha.
OperatorTree from_text(const std::string& text);

/// Convenience file helpers (throw std::runtime_error on IO failure).
void save_tree(const OperatorTree& tree, const std::string& path, double alpha,
               double work_scale = 1.0);
OperatorTree load_tree(const std::string& path);

} // namespace insp
