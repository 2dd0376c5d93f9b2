#ifndef PAW_PROVENANCE_EXECUTION_H_
#define PAW_PROVENANCE_EXECUTION_H_

/// \file execution.h
/// \brief Provenance graphs of workflow runs (paper Fig. 4).
///
/// An execution mirrors the fully expanded specification: every module
/// activation gets a unique process id (S1, S2, ...); a composite
/// activation is represented by a *begin* and an *end* node sharing the
/// process id (the convention of [1], adopted by the paper); edges carry
/// the set of data items that flowed. Each data item is produced by exactly
/// one node; begin/end nodes forward items without producing new ones.

#include <map>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/graph/digraph.h"
#include "src/workflow/spec.h"

namespace paw {

/// \brief Role of a node in an execution graph.
enum class ExecNodeKind { kInput, kOutput, kAtomic, kBegin, kEnd };

/// \brief Short name of an exec node kind ("atomic", "begin", ...).
std::string_view ExecNodeKindName(ExecNodeKind kind);

/// \brief A node of an execution graph.
struct ExecNode {
  ExecNodeId id;
  ExecNodeKind kind = ExecNodeKind::kAtomic;
  /// The specification module this node activates.
  ModuleId module;
  /// Activation number (S1, S2, ...); begin/end of the same composite
  /// activation share it; -1 for the I/O nodes.
  int process_id = -1;
  /// The begin node of the innermost enclosing composite activation, or
  /// invalid at root level. For a begin/end pair this is the *outer*
  /// activation (the pair belongs to the enclosing level).
  ExecNodeId enclosing;
};

/// \brief A data item produced during an execution.
struct DataItem {
  DataItemId id;
  /// The dataflow label it instantiates, e.g. "disorders".
  std::string label;
  /// The node (input or atomic) that produced it.
  ExecNodeId producer;
  /// The simulated value; privacy masking replaces this at render time.
  std::string value;
};

/// \brief A complete provenance graph of one run.
class Execution {
 public:
  /// Creates an empty execution of `spec` (which must outlive it).
  explicit Execution(const Specification& spec) : spec_(&spec) {}

  /// \brief The specification this run instantiates.
  const Specification& spec() const { return *spec_; }

  // ---- Construction (used by the executor) ----

  /// \brief Adds a node; returns its id (== its graph node index).
  /// `enclosing` must be invalid or name an earlier node (checked), so
  /// every enclosing chain ends and precedes the node.
  ExecNodeId AddNode(ExecNodeKind kind, ModuleId module, int process_id,
                     ExecNodeId enclosing);

  /// \brief Creates a data item.
  DataItemId AddItem(std::string label, ExecNodeId producer,
                     std::string value);

  /// \brief Adds (or extends) flow edge `from -> to` carrying `items`.
  Status AddFlow(ExecNodeId from, ExecNodeId to,
                 const std::vector<DataItemId>& items);

  // ---- Accessors ----

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_items() const { return static_cast<int>(items_.size()); }

  const ExecNode& node(ExecNodeId id) const {
    return nodes_[static_cast<size_t>(id.value())];
  }
  const DataItem& item(DataItemId id) const {
    return items_[static_cast<size_t>(id.value())];
  }
  const std::vector<ExecNode>& nodes() const { return nodes_; }
  const std::vector<DataItem>& items() const { return items_; }

  /// \brief The underlying digraph; node index == ExecNodeId value.
  const Digraph& graph() const { return graph_; }

  /// \brief Items flowing on edge `from -> to` (empty if no edge).
  const std::vector<DataItemId>& ItemsOn(ExecNodeId from,
                                         ExecNodeId to) const;

  /// \brief Display label: "I", "O", "S1:M1 begin", "S4:M5", ...
  std::string NodeLabel(ExecNodeId id) const;

  /// \brief Appends `NodeLabel(id)` to `out`.
  void AppendNodeLabel(ExecNodeId id, std::string* out) const;

  /// \brief Display name of an item: "d0", "d17", ...
  static std::string ItemName(DataItemId id);

  /// \brief The node with the given process id and kind preference
  /// (begin node for composites); NotFound if absent.
  Result<ExecNodeId> FindByProcess(int process_id) const;

  /// \brief First item with the given label; NotFound if absent.
  Result<DataItemId> FindItemByLabel(std::string_view label) const;

  /// \brief All items produced by `node`.
  std::vector<DataItemId> ItemsProducedBy(ExecNodeId node) const;

  /// \brief Graphviz rendering in the style of Fig. 4.
  std::string ToDot(const std::string& graph_name = "execution") const;

 private:
  const Specification* spec_;
  std::vector<ExecNode> nodes_;
  std::vector<DataItem> items_;
  Digraph graph_;
  std::map<std::pair<int32_t, int32_t>, std::vector<DataItemId>> edge_items_;
};

}  // namespace paw

#endif  // PAW_PROVENANCE_EXECUTION_H_
