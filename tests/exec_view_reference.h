#ifndef PAW_TESTS_EXEC_VIEW_REFERENCE_H_
#define PAW_TESTS_EXEC_VIEW_REFERENCE_H_

// Straightforward reference versions of the execution-view kernels, for
// differential tests: the chain-walk collapse into a `Digraph` plus an
// item map, the pairwise structural check, the zoom-out loop over them,
// LINEAGE rows rendered through `std::ostringstream`, and the
// `std::ostringstream` execution text. The optimized kernels must agree
// with them exactly. Also: generators for tenant-shaped specs and
// policies (depth 3, 150-159 modules), and hand-made executions that the
// parser accepts but the generator never makes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/graph/algorithms.h"
#include "src/privacy/data_privacy.h"
#include "src/privacy/policy.h"
#include "src/provenance/exec_view.h"
#include "src/provenance/execution.h"
#include "src/provenance/lineage.h"
#include "src/provenance/serialize.h"
#include "src/repo/workload.h"
#include "src/workflow/hierarchy.h"

namespace paw {
namespace ref {

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out += "\"";
  return out;
}

inline std::string ExecNodeLabel(const Execution& exec, ExecNodeId id) {
  const ExecNode& n = exec.node(id);
  const Module& m = exec.spec().module(n.module);
  switch (n.kind) {
    case ExecNodeKind::kInput:
    case ExecNodeKind::kOutput:
      return m.code;
    case ExecNodeKind::kAtomic:
      return "S" + std::to_string(n.process_id) + ":" + m.code;
    case ExecNodeKind::kBegin:
      return "S" + std::to_string(n.process_id) + ":" + m.code + " begin";
    case ExecNodeKind::kEnd:
      return "S" + std::to_string(n.process_id) + ":" + m.code + " end";
  }
  return "?";
}

/// A collapsed execution view in the reference layout.
struct ExecViewRef {
  const Execution* exec = nullptr;
  std::vector<ExecViewNode> nodes;
  std::vector<NodeIndex> view_of;
  Digraph graph;
  std::map<std::pair<NodeIndex, NodeIndex>, std::vector<DataItemId>>
      edge_items;

  const std::vector<DataItemId>& ItemsOn(NodeIndex u, NodeIndex v) const {
    static const std::vector<DataItemId> kEmpty;
    auto it = edge_items.find({u, v});
    return it == edge_items.end() ? kEmpty : it->second;
  }

  std::string NodeLabel(NodeIndex i) const {
    const ExecViewNode& n = nodes[static_cast<size_t>(i)];
    if (n.collapsed) {
      return "S" + std::to_string(n.process_id) + ":" +
             exec->spec().module(n.module).code;
    }
    return ExecNodeLabel(*exec, n.rep);
  }
};

/// Collapse by walking each node's enclosing chain and scanning all
/// nodes for an end node's begin. `prefix` must be valid.
inline ExecViewRef Collapse(const Execution& exec, const Prefix& prefix) {
  const Specification& spec = exec.spec();
  auto representative = [&](ExecNodeId n) -> ExecNodeId {
    std::vector<ExecNodeId> chain;
    ExecNodeId cur = exec.node(n).enclosing;
    while (cur.valid()) {
      chain.push_back(cur);
      cur = exec.node(cur).enclosing;
    }
    std::reverse(chain.begin(), chain.end());
    const ExecNode& node = exec.node(n);
    if (node.kind == ExecNodeKind::kBegin ||
        node.kind == ExecNodeKind::kEnd) {
      ExecNodeId begin = n;
      if (node.kind == ExecNodeKind::kEnd) {
        for (const ExecNode& cand : exec.nodes()) {
          if (cand.kind == ExecNodeKind::kBegin &&
              cand.process_id == node.process_id) {
            begin = cand.id;
            break;
          }
        }
      }
      chain.push_back(begin);
    }
    for (ExecNodeId b : chain) {
      WorkflowId expansion = spec.module(exec.node(b).module).expansion;
      if (!prefix.count(expansion)) return b;
    }
    return n;
  };

  ExecViewRef view;
  view.exec = &exec;
  view.view_of.assign(static_cast<size_t>(exec.num_nodes()), -1);
  std::map<int32_t, NodeIndex> group_index;
  for (int32_t i = 0; i < exec.num_nodes(); ++i) {
    ExecNodeId rep = representative(ExecNodeId(i));
    auto it = group_index.find(rep.value());
    NodeIndex vi;
    if (it == group_index.end()) {
      vi = view.graph.AddNode();
      group_index[rep.value()] = vi;
      ExecViewNode vn;
      vn.rep = rep;
      const ExecNode& rn = exec.node(rep);
      vn.module = rn.module;
      vn.process_id = rn.process_id;
      vn.collapsed = rn.kind == ExecNodeKind::kBegin &&
                     !prefix.count(spec.module(rn.module).expansion);
      view.nodes.push_back(vn);
    } else {
      vi = it->second;
      view.nodes[static_cast<size_t>(vi)].collapsed = true;
    }
    view.view_of[static_cast<size_t>(i)] = vi;
  }
  for (const auto& [u, v] : exec.graph().Edges()) {
    NodeIndex vu = view.view_of[static_cast<size_t>(u)];
    NodeIndex vv = view.view_of[static_cast<size_t>(v)];
    if (vu == vv) continue;
    if (!view.graph.HasEdge(vu, vv)) {
      EXPECT_TRUE(view.graph.AddEdge(vu, vv).ok());
    }
    auto& items = view.edge_items[{vu, vv}];
    for (DataItemId d : exec.ItemsOn(ExecNodeId(u), ExecNodeId(v))) {
      if (std::find(items.begin(), items.end(), d) == items.end()) {
        items.push_back(d);
      }
    }
  }
  return view;
}

/// One BFS per (source, destination) pair.
inline bool StructuralFactVisible(const ExecViewRef& view, ModuleId src,
                                  ModuleId dst) {
  std::vector<NodeIndex> src_nodes;
  std::vector<NodeIndex> dst_nodes;
  for (const ExecNode& n : view.exec->nodes()) {
    if (n.kind != ExecNodeKind::kAtomic && n.kind != ExecNodeKind::kBegin &&
        n.kind != ExecNodeKind::kEnd) {
      continue;
    }
    NodeIndex v = view.view_of[static_cast<size_t>(n.id.value())];
    if (view.nodes[static_cast<size_t>(v)].module != n.module) continue;
    if (n.module == src) src_nodes.push_back(v);
    if (n.module == dst) dst_nodes.push_back(v);
  }
  for (NodeIndex s : src_nodes) {
    for (NodeIndex d : dst_nodes) {
      if (s != d && PathExists(view.graph, s, d)) return true;
    }
  }
  return false;
}

inline void RemoveSubtree(const ExpansionHierarchy& hierarchy, WorkflowId w,
                          Prefix* prefix) {
  prefix->erase(w);
  for (WorkflowId c : hierarchy.Children(w)) {
    if (prefix->count(c)) RemoveSubtree(hierarchy, c, prefix);
  }
}

struct ZoomRef {
  Prefix final_prefix;
  int steps = 0;
  ExecViewRef view;
};

/// The zoom-out loop over the reference collapse and structural check.
inline Result<ZoomRef> ZoomOutExecution(const Execution& exec,
                                        const ExpansionHierarchy& hierarchy,
                                        const PolicySet& policy,
                                        AccessLevel level) {
  const Specification& spec = exec.spec();
  Prefix prefix = hierarchy.AccessPrefix(spec, level);
  int steps = 0;
  for (;;) {
    ExecViewRef view = Collapse(exec, prefix);
    WorkflowId zoom_target;
    bool violated = false;
    for (const StructuralPrivacyRequirement& req : policy.structural_reqs) {
      if (level >= req.required_level) continue;
      PAW_ASSIGN_OR_RETURN(ModuleId src, spec.FindModule(req.src_code));
      PAW_ASSIGN_OR_RETURN(ModuleId dst, spec.FindModule(req.dst_code));
      if (!StructuralFactVisible(view, src, dst)) continue;
      violated = true;
      for (WorkflowId w :
           {spec.module(src).workflow, spec.module(dst).workflow}) {
        if (w != spec.root() && prefix.count(w) &&
            (!zoom_target.valid() ||
             hierarchy.Depth(w) > hierarchy.Depth(zoom_target))) {
          zoom_target = w;
        }
      }
      break;
    }
    if (!violated) return ZoomRef{std::move(prefix), steps, std::move(view)};
    if (!zoom_target.valid()) {
      return Status::PermissionDenied("leaks at the root view");
    }
    RemoveSubtree(hierarchy, zoom_target, &prefix);
    ++steps;
  }
}

/// LINEAGE rows of `item` for an observer at `level`, rendered from the
/// zoomed view with `std::ostringstream`.
inline std::vector<std::string> LineageRows(const ZoomRef& zoomed,
                                            const DataPolicy& data_policy,
                                            AccessLevel level,
                                            DataItemId item) {
  const Execution& exec = *zoomed.view.exec;
  const ExecViewRef& view = zoomed.view;
  auto cone = ProvenanceOf(exec, item);
  EXPECT_TRUE(cone.ok());
  std::vector<bool> in_cone(static_cast<size_t>(exec.num_nodes()), false);
  for (ExecNodeId n : cone.value().nodes) {
    in_cone[static_cast<size_t>(n.value())] = true;
  }
  std::vector<bool> view_in_cone(view.nodes.size(), false);
  for (int32_t i = 0; i < exec.num_nodes(); ++i) {
    if (!in_cone[static_cast<size_t>(i)]) continue;
    view_in_cone[static_cast<size_t>(view.view_of[static_cast<size_t>(i)])] =
        true;
  }
  std::vector<std::string> rows;
  for (const auto& [u, v] : view.graph.Edges()) {
    if (!view_in_cone[static_cast<size_t>(u)] ||
        !view_in_cone[static_cast<size_t>(v)]) {
      continue;
    }
    std::ostringstream row;
    row << view.NodeLabel(u) << " -> " << view.NodeLabel(v) << " [";
    bool first = true;
    for (DataItemId d : view.ItemsOn(u, v)) {
      if (!first) row << ", ";
      first = false;
      row << Execution::ItemName(d) << "="
          << RenderValue(exec, d, data_policy, level);
    }
    row << "]";
    rows.push_back(row.str());
  }
  NodeIndex producer_view =
      view.view_of[static_cast<size_t>(exec.item(item).producer.value())];
  rows.push_back(Execution::ItemName(item) + " = " +
                 RenderValue(exec, item, data_policy, level) +
                 " (produced by " + view.NodeLabel(producer_view) + ")");
  return rows;
}

/// The execution text format rendered with `std::ostringstream`.
inline std::string SerializeExecution(const Execution& exec,
                                      const std::vector<bool>& visible,
                                      const std::string& masked) {
  std::ostringstream os;
  os << "execution spec=" << Quote(exec.spec().name()) << "\n";
  for (const ExecNode& n : exec.nodes()) {
    os << "node " << n.id.value() << " " << ExecNodeKindName(n.kind) << " "
       << exec.spec().module(n.module).code << " process=" << n.process_id
       << " enclosing=" << n.enclosing.value() << "\n";
  }
  for (const DataItem& d : exec.items()) {
    const bool shown =
        visible.empty() || visible[static_cast<size_t>(d.id.value())];
    os << "item " << d.id.value() << " label=" << Quote(d.label)
       << " producer=" << d.producer.value()
       << " value=" << Quote(shown ? d.value : masked) << "\n";
  }
  for (const auto& [u, v] : exec.graph().Edges()) {
    os << "flow " << u << " " << v << " items=\"";
    const auto& items = exec.ItemsOn(ExecNodeId(u), ExecNodeId(v));
    for (size_t i = 0; i < items.size(); ++i) {
      if (i) os << ";";
      os << items[i].value();
    }
    os << "\"\n";
  }
  return os.str();
}

/// Expects `got` to match the reference view node for node, edge for
/// edge and item for item, in order.
inline void ExpectSameView(const ExecView& got, const ExecViewRef& want) {
  const Execution& exec = *want.exec;
  ASSERT_EQ(got.num_nodes(), static_cast<NodeIndex>(want.nodes.size()));
  for (NodeIndex i = 0; i < got.num_nodes(); ++i) {
    const ExecViewNode& g = got.node(i);
    const ExecViewNode& w = want.nodes[static_cast<size_t>(i)];
    EXPECT_EQ(g.collapsed, w.collapsed) << "view node " << i;
    EXPECT_EQ(g.rep, w.rep) << "view node " << i;
    EXPECT_EQ(g.module, w.module) << "view node " << i;
    EXPECT_EQ(g.process_id, w.process_id) << "view node " << i;
    EXPECT_EQ(got.NodeLabel(i), want.NodeLabel(i));
  }
  for (int32_t n = 0; n < exec.num_nodes(); ++n) {
    auto v = got.ViewNodeOf(ExecNodeId(n));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value(), want.view_of[static_cast<size_t>(n)])
        << "exec node " << n;
  }
  EXPECT_FALSE(got.ViewNodeOf(ExecNodeId(exec.num_nodes())).ok());
  std::vector<std::pair<NodeIndex, NodeIndex>> got_edges;
  for (NodeIndex u = 0; u < got.num_nodes(); ++u) {
    for (NodeIndex v : got.OutNeighbors(u)) got_edges.emplace_back(u, v);
  }
  const auto want_edges = want.graph.Edges();
  ASSERT_EQ(got_edges, want_edges);
  EXPECT_EQ(got.num_edges(), static_cast<int64_t>(want_edges.size()));
  for (const auto& [u, v] : want_edges) {
    const auto items = got.ItemsOn(u, v);
    EXPECT_EQ(std::vector<DataItemId>(items.begin(), items.end()),
              want.ItemsOn(u, v))
        << "edge " << u << " -> " << v;
  }
}

/// A spec drawn like pawbench's tenant shape: depth 3, five modules per
/// workflow, 55% composites, redrawn until it has 150-159 modules.
inline Specification TenantShapedSpec(Rng* rng, const std::string& name) {
  WorkloadParams params;
  params.depth = 3;
  params.modules_per_workflow = 5;
  params.composite_prob = 0.55;
  params.vocabulary = 40;
  params.max_level = 3;
  for (;;) {
    auto spec = GenerateSpec(params, rng, name);
    EXPECT_TRUE(spec.ok());
    const size_t modules = spec.value().modules().size();
    if (modules >= 150 && modules <= 159) return std::move(spec).value();
  }
}

/// pawbench's tenant policy: data at level 1 or 2, and structural
/// requirements (level 2) from the first to the last atomic module of up
/// to two non-root workflows.
inline PolicySet TenantShapedPolicy(const Specification& spec, int index) {
  PolicySet policy;
  policy.data.default_level = 1 + index % 2;
  std::map<int32_t, std::vector<const Module*>> by_workflow;
  for (const Module& m : spec.modules()) {
    if (m.kind == ModuleKind::kAtomic && m.workflow != spec.root()) {
      by_workflow[m.workflow.value()].push_back(&m);
    }
  }
  for (const auto& [wf, mods] : by_workflow) {
    if (mods.size() < 2) continue;
    policy.structural_reqs.push_back(
        {mods.front()->code, mods.back()->code, /*required_level=*/2});
    if (policy.structural_reqs.size() >= 2) break;
  }
  return policy;
}

/// `exec`'s text with `extra` lines appended and `edit` applied to each
/// node line (by node id), parsed back against the same spec.
template <typename Edit>
Result<Execution> EditedExecution(const Execution& exec,
                                  const std::vector<std::string>& extra,
                                  Edit edit) {
  std::string text;
  for (std::string line :
       Split(::paw::SerializeExecution(exec), '\n')) {
    if (line.empty()) continue;
    if (line.rfind("node ", 0) == 0) {
      edit(std::atoi(line.c_str() + 5), &line);
    }
    text += line + "\n";
  }
  for (const std::string& line : extra) text += line + "\n";
  return ParseExecution(text, exec.spec());
}

/// A cyclic execution: `exec` plus a flow from the last atomic node back
/// to the first one downstream of which it lies.
inline Result<Execution> CyclicExecution(const Execution& exec) {
  for (int32_t b = exec.num_nodes() - 1; b >= 0; --b) {
    if (exec.node(ExecNodeId(b)).kind != ExecNodeKind::kAtomic) continue;
    for (int32_t a = 0; a < b; ++a) {
      if (exec.node(ExecNodeId(a)).kind != ExecNodeKind::kAtomic ||
          !PathExists(exec.graph(), a, b) ||
          exec.graph().HasEdge(b, a)) {
        continue;
      }
      return EditedExecution(
          exec,
          {"flow " + std::to_string(b) + " " + std::to_string(a) +
           " items=\"0\""},
          [](int32_t, std::string*) {});
    }
  }
  return Status::NotFound("no atomic path to close");
}

/// `exec` with the enclosing of every odd node inside a composite
/// pointed at the nearest earlier atomic node, when there is one.
inline Result<Execution> NonBeginEnclosingExecution(const Execution& exec) {
  return EditedExecution(exec, {}, [&](int32_t id, std::string* line) {
    if (id % 2 == 0 || !exec.node(ExecNodeId(id)).enclosing.valid()) return;
    for (int32_t j = id - 1; j >= 0; --j) {
      if (exec.node(ExecNodeId(j)).kind != ExecNodeKind::kAtomic) continue;
      line->replace(line->rfind("enclosing="), std::string::npos,
                    "enclosing=" + std::to_string(j));
      return;
    }
  });
}

/// `exec` with the process ids of composite activations with an even id
/// moved far above the node count.
inline Result<Execution> SparseProcessIdExecution(const Execution& exec) {
  return EditedExecution(exec, {}, [&](int32_t id, std::string* line) {
    const ExecNode& n = exec.node(ExecNodeId(id));
    if ((n.kind != ExecNodeKind::kBegin && n.kind != ExecNodeKind::kEnd) ||
        n.process_id % 2 != 0) {
      return;
    }
    const size_t at = line->find("process=");
    const size_t end = line->find(' ', at);
    line->replace(at, end - at,
                  "process=" + std::to_string(n.process_id + 100000));
  });
}

/// `exec` with every composite activation's begin and end given process
/// id `pid`: each end node then pairs with the first begin node.
inline Result<Execution> SharedProcessIdExecution(const Execution& exec,
                                                  int pid) {
  return EditedExecution(exec, {}, [&](int32_t id, std::string* line) {
    const ExecNode& n = exec.node(ExecNodeId(id));
    if (n.kind != ExecNodeKind::kBegin && n.kind != ExecNodeKind::kEnd) return;
    const size_t at = line->find("process=");
    const size_t end = line->find(' ', at);
    line->replace(at, end - at, "process=" + std::to_string(pid));
  });
}

/// `exec` plus a second activation of its first atomic module, fed by
/// the first one (node `exec.num_nodes()`), and a second activation of
/// its last atomic module, feeding the first one.
inline Result<Execution> DuplicateActivationExecution(const Execution& exec) {
  int32_t first = -1;
  int32_t last = -1;
  for (const ExecNode& n : exec.nodes()) {
    if (n.kind != ExecNodeKind::kAtomic) continue;
    if (first < 0) first = n.id.value();
    last = n.id.value();
  }
  if (first == last) return Status::NotFound("needs two atomic nodes");
  auto copy = [&](int32_t id, int32_t of) {
    const ExecNode& n = exec.node(ExecNodeId(of));
    return "node " + std::to_string(id) + " atomic " +
           exec.spec().module(n.module).code + " process=" +
           std::to_string(900 + id) +
           " enclosing=" + std::to_string(n.enclosing.value());
  };
  const int32_t a = exec.num_nodes();
  const int32_t b = a + 1;
  return EditedExecution(
      exec,
      {copy(a, first), copy(b, last),
       "flow " + std::to_string(first) + " " + std::to_string(a) +
           " items=\"0\"",
       "flow " + std::to_string(b) + " " + std::to_string(first) +
           " items=\"0\""},
      [](int32_t, std::string*) {});
}

/// `exec` plus, for its first composite activation entered by an edge
/// with items, a flow from that edge's source straight to an atomic node
/// inside the composite, carrying the same first item. When the
/// composite collapses, both flows land on one view edge.
inline Result<Execution> BypassFlowExecution(const Execution& exec) {
  const Digraph& g = exec.graph();
  for (const ExecNode& begin : exec.nodes()) {
    if (begin.kind != ExecNodeKind::kBegin) continue;
    for (NodeIndex p : g.InNeighbors(begin.id.value())) {
      const auto& items = exec.ItemsOn(ExecNodeId(p), begin.id);
      if (items.empty()) continue;
      for (const ExecNode& x : exec.nodes()) {
        if (x.kind != ExecNodeKind::kAtomic || x.enclosing != begin.id ||
            g.HasEdge(p, x.id.value())) {
          continue;
        }
        return EditedExecution(
            exec,
            {"flow " + std::to_string(p) + " " + std::to_string(x.id.value()) +
             " items=\"" + std::to_string(items.front().value()) + "\""},
            [](int32_t, std::string*) {});
      }
    }
  }
  return Status::NotFound("no composite entered with items");
}

}  // namespace ref
}  // namespace paw

#endif  // PAW_TESTS_EXEC_VIEW_REFERENCE_H_
