#include "src/provenance/exec_view.h"

#include "src/common/logging.h"
#include "src/graph/dot.h"

namespace paw {

std::span<const DataItemId> ExecView::ItemsOn(NodeIndex u,
                                              NodeIndex v) const {
  const size_t begin = static_cast<size_t>(succ_begin_[size_t(u)]);
  const size_t end = static_cast<size_t>(succ_begin_[size_t(u) + 1]);
  for (size_t e = begin; e < end; ++e) {
    if (succ_[e] != v) continue;
    const size_t first = static_cast<size_t>(items_begin_[e]);
    const size_t last = static_cast<size_t>(items_begin_[e + 1]);
    return {items_.data() + first, last - first};
  }
  return {};
}

Result<NodeIndex> ExecView::ViewNodeOf(ExecNodeId n) const {
  if (n.value() < 0 ||
      n.value() >= static_cast<int32_t>(view_of_.size())) {
    return Status::InvalidArgument("exec node out of range");
  }
  return view_of_[static_cast<size_t>(n.value())];
}

std::string ExecView::NodeLabel(NodeIndex i) const {
  std::string out;
  AppendNodeLabel(i, &out);
  return out;
}

void ExecView::AppendNodeLabel(NodeIndex i, std::string* out) const {
  const ExecViewNode& n = node(i);
  if (!n.collapsed) {
    exec_->AppendNodeLabel(n.rep, out);
    return;
  }
  out->push_back('S');
  out->append(std::to_string(n.process_id));
  out->push_back(':');
  out->append(exec_->spec().module(n.module).code);
}

Digraph ExecView::ToDigraph() const {
  Digraph g(num_nodes());
  for (NodeIndex u = 0; u < num_nodes(); ++u) {
    for (NodeIndex v : OutNeighbors(u)) {
      Status st = g.AddEdge(u, v);
      PAW_CHECK(st.ok()) << st.ToString();
    }
  }
  return g;
}

std::string ExecView::ToDot(const std::string& graph_name) const {
  DotOptions opts;
  opts.name = graph_name;
  opts.node_label = [this](NodeIndex u) { return NodeLabel(u); };
  opts.edge_label = [this](NodeIndex u, NodeIndex v) {
    std::string out;
    for (DataItemId d : ItemsOn(u, v)) {
      if (!out.empty()) out += ",";
      out += Execution::ItemName(d);
    }
    return out;
  };
  opts.node_attrs = [this](NodeIndex u) -> std::string {
    return node(u).collapsed ? "shape=box3d" : "";
  };
  return paw::ToDot(ToDigraph(), opts);
}

size_t ExecView::HeapBytes() const {
  return nodes_.capacity() * sizeof(ExecViewNode) +
         (view_of_.capacity() + succ_.capacity()) * sizeof(NodeIndex) +
         (succ_begin_.capacity() + items_begin_.capacity()) *
             sizeof(int32_t) +
         items_.capacity() * sizeof(DataItemId);
}

Result<ExecView> CollapseExecution(const Execution& exec,
                                   const ExpansionHierarchy& hierarchy,
                                   const Prefix& prefix) {
  if (!hierarchy.IsValidPrefix(prefix)) {
    return Status::InvalidArgument("invalid prefix");
  }
  const Specification& spec = exec.spec();
  const int32_t n = exec.num_nodes();
  const Digraph& g = exec.graph();

  std::vector<bool> in_prefix(static_cast<size_t>(spec.num_workflows()),
                              false);
  for (WorkflowId w : prefix) {
    if (w.value() < spec.num_workflows()) {
      in_prefix[static_cast<size_t>(w.value())] = true;
    }
  }
  // A node hides what it encloses when its module's expansion (if any) is
  // outside the prefix. Atomic modules have no expansion, so a chain
  // through a non-begin node stops at that node.
  auto hides = [&](int32_t b) {
    const WorkflowId w = spec.module(exec.node(ExecNodeId(b)).module).expansion;
    return !w.valid() || !in_prefix[static_cast<size_t>(w.value())];
  };

  // First begin node of each process id: an end node collapses with it.
  // The executor numbers activations densely from 1; other ids fall back
  // to a scan.
  std::vector<int32_t> first_begin(static_cast<size_t>(n) + 1, -1);
  for (int32_t i = n - 1; i >= 0; --i) {
    const ExecNode& node = exec.node(ExecNodeId(i));
    if (node.kind == ExecNodeKind::kBegin && node.process_id >= 0 &&
        node.process_id <= n) {
      first_begin[static_cast<size_t>(node.process_id)] = i;
    }
  }
  auto begin_of = [&](const ExecNode& end) -> int32_t {
    if (end.process_id >= 0 && end.process_id <= n) {
      return first_begin[static_cast<size_t>(end.process_id)];
    }
    for (const ExecNode& cand : exec.nodes()) {
      if (cand.kind == ExecNodeKind::kBegin &&
          cand.process_id == end.process_id) {
        return cand.id.value();
      }
    }
    return -1;
  };

  ExecView view;
  view.exec_ = &exec;
  view.view_of_.resize(static_cast<size_t>(n));

  // outer[i]: the outermost node on i's enclosing chain that hides what
  // it encloses, or -1. It extends the enclosing node's (enclosing < i,
  // checked by Execution::AddNode). A node's representative is outer[i]
  // when set; otherwise an end node's begin when that begin hides, so the
  // pair collapses with its activation; otherwise the node itself.
  std::vector<int32_t> outer(static_cast<size_t>(n), -1);
  std::vector<NodeIndex> view_of_rep(static_cast<size_t>(n), -1);
  for (int32_t i = 0; i < n; ++i) {
    const ExecNode& node = exec.node(ExecNodeId(i));
    if (node.enclosing.valid()) {
      const int32_t c = node.enclosing.value();
      const int32_t up = outer[static_cast<size_t>(c)];
      outer[static_cast<size_t>(i)] = up >= 0 ? up : (hides(c) ? c : -1);
    }
    int32_t rep = outer[static_cast<size_t>(i)];
    if (rep < 0) {
      rep = i;
      if (node.kind == ExecNodeKind::kEnd) {
        const int32_t b = begin_of(node);
        if (b >= 0 && hides(b)) rep = b;
      }
    }
    NodeIndex& vi = view_of_rep[static_cast<size_t>(rep)];
    if (vi < 0) {
      vi = static_cast<NodeIndex>(view.nodes_.size());
      const ExecNode& rn = exec.node(ExecNodeId(rep));
      ExecViewNode vn;
      vn.rep = rn.id;
      vn.module = rn.module;
      vn.process_id = rn.process_id;
      // A representative that is a begin node stands for a swallowed
      // activation exactly when its expansion is outside the prefix.
      vn.collapsed = rn.kind == ExecNodeKind::kBegin && hides(rep);
      view.nodes_.push_back(vn);
    } else {
      view.nodes_[static_cast<size_t>(vi)].collapsed = true;
    }
    view.view_of_[static_cast<size_t>(i)] = vi;
  }
  view.nodes_.shrink_to_fit();
  const NodeIndex num_view = view.num_nodes();

  // Exec nodes grouped by view node, in exec node order within a group.
  std::vector<int32_t> member_begin(static_cast<size_t>(num_view) + 1, 0);
  for (NodeIndex v : view.view_of_) ++member_begin[static_cast<size_t>(v) + 1];
  for (NodeIndex v = 0; v < num_view; ++v) {
    member_begin[size_t(v) + 1] += member_begin[size_t(v)];
  }
  std::vector<int32_t> members(static_cast<size_t>(n));
  {
    std::vector<int32_t> cursor(member_begin.begin(), member_begin.end() - 1);
    for (int32_t i = 0; i < n; ++i) {
      const NodeIndex v = view.view_of_[static_cast<size_t>(i)];
      members[static_cast<size_t>(cursor[size_t(v)]++)] = i;
    }
  }

  // Edges, source group by source group. edge_to[vv] is the edge from the
  // current source to vv; an index below the group's first edge is stale.
  // Each exec edge becomes a flow: (view edge, its exec items).
  struct Flow {
    int32_t edge;
    const std::vector<DataItemId>* items;
  };
  std::vector<Flow> flows;
  flows.reserve(static_cast<size_t>(g.num_edges()));
  std::vector<int32_t> edge_to(static_cast<size_t>(num_view), -1);
  view.succ_begin_.resize(static_cast<size_t>(num_view) + 1);
  view.succ_begin_[0] = 0;
  for (NodeIndex vu = 0; vu < num_view; ++vu) {
    const int32_t group_first = static_cast<int32_t>(view.succ_.size());
    for (int32_t k = member_begin[size_t(vu)]; k < member_begin[size_t(vu) + 1];
         ++k) {
      const int32_t u = members[static_cast<size_t>(k)];
      for (NodeIndex v : g.OutNeighbors(u)) {
        const NodeIndex vv = view.view_of_[static_cast<size_t>(v)];
        if (vv == vu) continue;
        int32_t& e = edge_to[static_cast<size_t>(vv)];
        if (e < group_first) {
          e = static_cast<int32_t>(view.succ_.size());
          view.succ_.push_back(vv);
        }
        flows.push_back({e, &exec.ItemsOn(ExecNodeId(u), ExecNodeId(v))});
      }
    }
    view.succ_begin_[size_t(vu) + 1] = static_cast<int32_t>(view.succ_.size());
  }
  view.succ_.shrink_to_fit();

  // Items: flows sorted by edge (stable, so first-seen order holds), then
  // each edge's items deduplicated with a per-item stamp of the last edge
  // that took it.
  const size_t num_edges = view.succ_.size();
  std::vector<int32_t> flow_begin(num_edges + 1, 0);
  for (const Flow& f : flows) ++flow_begin[static_cast<size_t>(f.edge) + 1];
  for (size_t e = 0; e < num_edges; ++e) flow_begin[e + 1] += flow_begin[e];
  std::vector<const std::vector<DataItemId>*> by_edge(flows.size());
  {
    std::vector<int32_t> cursor(flow_begin.begin(), flow_begin.end() - 1);
    for (const Flow& f : flows) {
      by_edge[static_cast<size_t>(cursor[size_t(f.edge)]++)] = f.items;
    }
  }
  std::vector<int32_t> stamp(static_cast<size_t>(exec.num_items()), -1);
  view.items_begin_.resize(num_edges + 1);
  view.items_begin_[0] = 0;
  for (size_t e = 0; e < num_edges; ++e) {
    for (int32_t k = flow_begin[e]; k < flow_begin[e + 1]; ++k) {
      for (DataItemId d : *by_edge[static_cast<size_t>(k)]) {
        int32_t& last = stamp[static_cast<size_t>(d.value())];
        if (last == static_cast<int32_t>(e)) continue;
        last = static_cast<int32_t>(e);
        view.items_.push_back(d);
      }
    }
    view.items_begin_[e + 1] = static_cast<int32_t>(view.items_.size());
  }
  view.items_.shrink_to_fit();
  return view;
}

}  // namespace paw
