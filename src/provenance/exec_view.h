#ifndef PAW_PROVENANCE_EXEC_VIEW_H_
#define PAW_PROVENANCE_EXEC_VIEW_H_

/// \file exec_view.h
/// \brief Views of provenance graphs under hierarchy prefixes (Fig. 2).
///
/// An execution view collapses every composite activation whose expansion
/// lies outside the prefix into a single node: begin, end and everything
/// between disappear into one box, and the items entering/leaving it stay
/// on the boundary edges. With the prefix {W1}, the Fig. 4 execution
/// collapses to the four-node graph of Fig. 2.
///
/// Layout: the view is flat. Edges are stored in compressed sparse row
/// form: one offsets array per node into one successor array, and one
/// offsets array per edge into one item array. Edges are grouped by
/// source view node, then ordered by their first underlying exec edge
/// (exec node order, then adjacency order); each edge's items keep
/// first-seen order without duplicates. The spans returned by
/// `OutNeighbors` and `ItemsOn` point into the view and live as long as
/// it does (the privacy-view cache holds views by `shared_ptr`).
/// `ToDigraph()` allocates a `Digraph` copy for DOT output and for graph
/// algorithms.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/digraph.h"
#include "src/provenance/execution.h"
#include "src/workflow/hierarchy.h"

namespace paw {

/// \brief A node of a collapsed execution view.
struct ExecViewNode {
  /// True when the node stands for an entire composite activation.
  bool collapsed = false;
  /// For plain nodes: the underlying exec node. For collapsed nodes: the
  /// begin node of the collapsed activation.
  ExecNodeId rep;
  /// The module shown (the composite for collapsed nodes).
  ModuleId module;
  /// Process id of the shown activation (-1 for I/O).
  int process_id = -1;
};

/// \brief A provenance graph as seen through a prefix.
class ExecView {
 public:
  /// \brief Number of visible nodes.
  NodeIndex num_nodes() const { return static_cast<NodeIndex>(nodes_.size()); }

  /// \brief Number of visible edges.
  int64_t num_edges() const { return static_cast<int64_t>(succ_.size()); }

  /// \brief Visible node metadata.
  const ExecViewNode& node(NodeIndex i) const {
    return nodes_[static_cast<size_t>(i)];
  }

  /// \brief Successors of `u`, in edge order (see file comment).
  std::span<const NodeIndex> OutNeighbors(NodeIndex u) const {
    const size_t begin = static_cast<size_t>(succ_begin_[size_t(u)]);
    const size_t end = static_cast<size_t>(succ_begin_[size_t(u) + 1]);
    return {succ_.data() + begin, end - begin};
  }

  /// \brief Items on visible edge `u -> v` (union over collapsed edges);
  /// empty when there is no such edge.
  std::span<const DataItemId> ItemsOn(NodeIndex u, NodeIndex v) const;

  /// \brief The underlying execution.
  const Execution& execution() const { return *exec_; }

  /// \brief View node showing exec node `n`; InvalidArgument when out of
  /// range.
  Result<NodeIndex> ViewNodeOf(ExecNodeId n) const;

  /// \brief Display label, e.g. "S1:M1" for a collapsed activation.
  std::string NodeLabel(NodeIndex i) const;

  /// \brief Appends `NodeLabel(i)` to `out`.
  void AppendNodeLabel(NodeIndex i, std::string* out) const;

  /// \brief A `Digraph` copy of the collapsed graph, with the same edge
  /// order. Allocates per node and per edge.
  Digraph ToDigraph() const;

  /// \brief Graphviz rendering in the style of Fig. 2.
  std::string ToDot(const std::string& graph_name = "exec_view") const;

  /// \brief Heap bytes held by the view's arrays.
  size_t HeapBytes() const;

 private:
  friend Result<ExecView> CollapseExecution(const Execution&,
                                            const ExpansionHierarchy&,
                                            const Prefix&);

  const Execution* exec_ = nullptr;
  std::vector<ExecViewNode> nodes_;
  std::vector<NodeIndex> view_of_;  // exec node -> view node
  // Edges: succ_[succ_begin_[u] .. succ_begin_[u + 1]) are u's
  // successors; edge e carries items_[items_begin_[e] .. items_begin_[e + 1]).
  std::vector<int32_t> succ_begin_;
  std::vector<NodeIndex> succ_;
  std::vector<int32_t> items_begin_;
  std::vector<DataItemId> items_;
};

/// \brief Collapses `exec` under `prefix` (valid for the spec's hierarchy)
/// in time linear in the execution's nodes, edges and edge items.
Result<ExecView> CollapseExecution(const Execution& exec,
                                   const ExpansionHierarchy& hierarchy,
                                   const Prefix& prefix);

}  // namespace paw

#endif  // PAW_PROVENANCE_EXEC_VIEW_H_
