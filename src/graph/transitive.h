#ifndef PAW_GRAPH_TRANSITIVE_H_
#define PAW_GRAPH_TRANSITIVE_H_

/// \file transitive.h
/// \brief Transitive closure and reduction.
///
/// Structural privacy reasons entirely in terms of reachability pairs: the
/// soundness of a clustered view, the collateral damage of an edge deletion
/// and the utility of a published view are all computed by comparing
/// closures. The closure is stored as one bitset row per node.

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/graph/digraph.h"

namespace paw {

/// \brief Dense transitive closure of a digraph.
///
/// Row `u` is a bitset over nodes; bit `v` is set iff a directed path
/// `u -> ... -> v` with at least one edge exists (irreflexive by default).
class TransitiveClosure {
 public:
  /// \brief Computes the closure of `g`. O(V * E / 64).
  static TransitiveClosure Compute(const Digraph& g);

  /// \brief True iff `u` reaches `v` via a non-empty path.
  bool Reaches(NodeIndex u, NodeIndex v) const;

  /// \brief Number of reachable pairs (u, v), u != v.
  int64_t CountPairs() const;

  /// \brief Nodes reachable from `u` (ascending).
  std::vector<NodeIndex> RowOf(NodeIndex u) const;

  /// \brief Number of nodes.
  NodeIndex num_nodes() const { return n_; }

  /// \brief Pairs reachable in `*this` but not in `other`.
  ///
  /// Requires equal node counts; used to count extraneous paths introduced
  /// by an unsound clustering and information destroyed by edge deletion.
  Result<std::vector<std::pair<NodeIndex, NodeIndex>>> PairsMinus(
      const TransitiveClosure& other) const;

 private:
  TransitiveClosure(NodeIndex n, size_t words_per_row)
      : n_(n), words_per_row_(words_per_row),
        bits_(static_cast<size_t>(n) * words_per_row, 0) {}

  uint64_t* Row(NodeIndex u) {
    return bits_.data() + static_cast<size_t>(u) * words_per_row_;
  }
  const uint64_t* Row(NodeIndex u) const {
    return bits_.data() + static_cast<size_t>(u) * words_per_row_;
  }

  NodeIndex n_;
  size_t words_per_row_;
  std::vector<uint64_t> bits_;
};

/// \brief Transitive reduction of a DAG: the unique minimal edge set with
/// the same closure. FailedPrecondition on cyclic input.
Result<Digraph> TransitiveReduction(const Digraph& g);

}  // namespace paw

#endif  // PAW_GRAPH_TRANSITIVE_H_
