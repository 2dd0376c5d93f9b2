#include "src/provenance/execution.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/graph/dot.h"

namespace paw {

std::string_view ExecNodeKindName(ExecNodeKind kind) {
  switch (kind) {
    case ExecNodeKind::kInput:
      return "input";
    case ExecNodeKind::kOutput:
      return "output";
    case ExecNodeKind::kAtomic:
      return "atomic";
    case ExecNodeKind::kBegin:
      return "begin";
    case ExecNodeKind::kEnd:
      return "end";
  }
  return "?";
}

ExecNodeId Execution::AddNode(ExecNodeKind kind, ModuleId module,
                              int process_id, ExecNodeId enclosing) {
  ExecNodeId id(static_cast<int32_t>(nodes_.size()));
  PAW_CHECK(enclosing.value() >= -1 && enclosing.value() < id.value())
      << "enclosing node " << enclosing.value() << " does not precede node "
      << id.value();
  nodes_.push_back(ExecNode{id, kind, module, process_id, enclosing});
  NodeIndex gi = graph_.AddNode();
  PAW_CHECK(gi == id.value()) << "graph/node id desync";
  return id;
}

DataItemId Execution::AddItem(std::string label, ExecNodeId producer,
                              std::string value) {
  DataItemId id(static_cast<int32_t>(items_.size()));
  items_.push_back(
      DataItem{id, std::move(label), producer, std::move(value)});
  return id;
}

Status Execution::AddFlow(ExecNodeId from, ExecNodeId to,
                          const std::vector<DataItemId>& items) {
  if (from.value() < 0 || from.value() >= num_nodes() || to.value() < 0 ||
      to.value() >= num_nodes()) {
    return Status::InvalidArgument("flow endpoint out of range");
  }
  if (!graph_.HasEdge(from.value(), to.value())) {
    PAW_RETURN_NOT_OK(graph_.AddEdge(from.value(), to.value()));
  }
  auto& list = edge_items_[{from.value(), to.value()}];
  for (DataItemId d : items) {
    if (std::find(list.begin(), list.end(), d) == list.end()) {
      list.push_back(d);
    }
  }
  return Status::OK();
}

const std::vector<DataItemId>& Execution::ItemsOn(ExecNodeId from,
                                                  ExecNodeId to) const {
  static const std::vector<DataItemId> kEmpty;
  auto it = edge_items_.find({from.value(), to.value()});
  return it == edge_items_.end() ? kEmpty : it->second;
}

std::string Execution::NodeLabel(ExecNodeId id) const {
  std::string out;
  AppendNodeLabel(id, &out);
  return out;
}

void Execution::AppendNodeLabel(ExecNodeId id, std::string* out) const {
  const ExecNode& n = node(id);
  const Module& m = spec_->module(n.module);
  if (n.kind == ExecNodeKind::kInput || n.kind == ExecNodeKind::kOutput) {
    out->append(m.code);
    return;
  }
  out->push_back('S');
  out->append(std::to_string(n.process_id));
  out->push_back(':');
  out->append(m.code);
  if (n.kind == ExecNodeKind::kBegin) out->append(" begin");
  if (n.kind == ExecNodeKind::kEnd) out->append(" end");
}

std::string Execution::ItemName(DataItemId id) {
  return "d" + std::to_string(id.value());
}

Result<ExecNodeId> Execution::FindByProcess(int process_id) const {
  for (const ExecNode& n : nodes_) {
    if (n.process_id == process_id &&
        (n.kind == ExecNodeKind::kAtomic || n.kind == ExecNodeKind::kBegin)) {
      return n.id;
    }
  }
  return Status::NotFound("no activation S" + std::to_string(process_id));
}

Result<DataItemId> Execution::FindItemByLabel(std::string_view label) const {
  for (const DataItem& d : items_) {
    if (d.label == label) return d.id;
  }
  return Status::NotFound("no item labelled '" + std::string(label) + "'");
}

std::vector<DataItemId> Execution::ItemsProducedBy(ExecNodeId node) const {
  std::vector<DataItemId> out;
  for (const DataItem& d : items_) {
    if (d.producer == node) out.push_back(d.id);
  }
  return out;
}

std::string Execution::ToDot(const std::string& graph_name) const {
  DotOptions opts;
  opts.name = graph_name;
  opts.node_label = [this](NodeIndex u) { return NodeLabel(ExecNodeId(u)); };
  opts.edge_label = [this](NodeIndex u, NodeIndex v) {
    std::string out;
    for (DataItemId d : ItemsOn(ExecNodeId(u), ExecNodeId(v))) {
      if (!out.empty()) out += ",";
      out += ItemName(d);
    }
    return out;
  };
  opts.node_attrs = [this](NodeIndex u) -> std::string {
    ExecNodeKind k = node(ExecNodeId(u)).kind;
    if (k == ExecNodeKind::kBegin || k == ExecNodeKind::kEnd) {
      return "shape=box";
    }
    return "";
  };
  return paw::ToDot(graph_, opts);
}

}  // namespace paw
