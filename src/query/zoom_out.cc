#include "src/query/zoom_out.h"

#include <vector>

namespace paw {
namespace {

/// Deepest member of `prefix` violating `level`; invalid if none.
WorkflowId DeepestViolation(const Specification& spec,
                            const ExpansionHierarchy& hierarchy,
                            const Prefix& prefix, AccessLevel level) {
  WorkflowId worst;
  int worst_depth = -1;
  for (WorkflowId w : prefix) {
    if (spec.workflow(w).required_level > level &&
        hierarchy.Depth(w) > worst_depth) {
      worst = w;
      worst_depth = hierarchy.Depth(w);
    }
  }
  return worst;
}

/// Removes `w` and its descendants from `prefix`.
void RemoveSubtree(const ExpansionHierarchy& hierarchy, WorkflowId w,
                   Prefix* prefix) {
  prefix->erase(w);
  for (WorkflowId c : hierarchy.Children(w)) {
    if (prefix->count(c)) RemoveSubtree(hierarchy, c, prefix);
  }
}

/// Marks every view node reachable by at least one edge from `sources`.
std::vector<bool> ReachableByAnEdge(const ExecView& view,
                                    const std::vector<NodeIndex>& sources) {
  std::vector<bool> reached(static_cast<size_t>(view.num_nodes()), false);
  std::vector<NodeIndex> stack(sources);
  while (!stack.empty()) {
    const NodeIndex u = stack.back();
    stack.pop_back();
    for (NodeIndex v : view.OutNeighbors(u)) {
      if (reached[static_cast<size_t>(v)]) continue;
      reached[static_cast<size_t>(v)] = true;
      stack.push_back(v);
    }
  }
  return reached;
}

}  // namespace

Result<ZoomOutResult> ZoomOutToLevel(const Specification& spec,
                                     const ExpansionHierarchy& hierarchy,
                                     const Prefix& initial,
                                     AccessLevel level) {
  if (!hierarchy.IsValidPrefix(initial)) {
    return Status::InvalidArgument("invalid initial prefix");
  }
  Prefix prefix = initial;
  int steps = 0;
  for (;;) {
    WorkflowId violation =
        DeepestViolation(spec, hierarchy, prefix, level);
    if (!violation.valid()) break;
    if (violation == spec.root()) {
      return Status::PermissionDenied("root workflow above observer level");
    }
    RemoveSubtree(hierarchy, violation, &prefix);
    ++steps;
  }
  PAW_ASSIGN_OR_RETURN(SpecView view,
                       ExpandPrefix(spec, hierarchy, prefix));
  return ZoomOutResult{std::move(prefix), steps, std::move(view)};
}

Result<bool> StructuralFactVisible(const ExecView& view, ModuleId src,
                                   ModuleId dst) {
  const Execution& exec = view.execution();
  // Collect visible nodes of each module's activations.
  std::vector<NodeIndex> src_nodes;
  std::vector<NodeIndex> dst_nodes;
  for (const ExecNode& n : exec.nodes()) {
    if (n.kind != ExecNodeKind::kAtomic && n.kind != ExecNodeKind::kBegin &&
        n.kind != ExecNodeKind::kEnd) {
      continue;
    }
    PAW_ASSIGN_OR_RETURN(NodeIndex v, view.ViewNodeOf(n.id));
    // The fact is only visible when the view still *shows* the module:
    // a collapsed supernode standing for an enclosing composite does not
    // reveal this module's identity.
    if (view.node(v).module != n.module) continue;
    if (n.module == src) src_nodes.push_back(v);
    if (n.module == dst) dst_nodes.push_back(v);
  }
  if (src_nodes.empty() || dst_nodes.empty()) return false;
  if (src != dst) {
    // A view node shows one module, so no node is both a source and a
    // destination: one sweep from all sources answers every pair, even
    // on a cyclic execution.
    const std::vector<bool> reached = ReachableByAnEdge(view, src_nodes);
    for (NodeIndex d : dst_nodes) {
      if (reached[static_cast<size_t>(d)]) return true;
    }
    return false;
  }
  // Same module: a node reaching only itself (through a cycle) does not
  // count, so test each source on its own.
  for (NodeIndex s : src_nodes) {
    const std::vector<bool> reached = ReachableByAnEdge(view, {s});
    for (NodeIndex d : dst_nodes) {
      if (s != d && reached[static_cast<size_t>(d)]) return true;
    }
  }
  return false;
}

Result<ExecZoomOutResult> ZoomOutExecution(
    const Execution& exec, const ExpansionHierarchy& hierarchy,
    const PolicySet& policy, AccessLevel level) {
  const Specification& spec = exec.spec();
  Prefix prefix = hierarchy.AccessPrefix(spec, level);
  int steps = 0;
  for (;;) {
    PAW_ASSIGN_OR_RETURN(ExecView view,
                         CollapseExecution(exec, hierarchy, prefix));
    // Find a violated structural requirement.
    WorkflowId zoom_target;
    bool violated = false;
    for (const StructuralPrivacyRequirement& req :
         policy.structural_reqs) {
      if (level >= req.required_level) continue;  // observer cleared
      PAW_ASSIGN_OR_RETURN(ModuleId src, spec.FindModule(req.src_code));
      PAW_ASSIGN_OR_RETURN(ModuleId dst, spec.FindModule(req.dst_code));
      PAW_ASSIGN_OR_RETURN(bool visible,
                           StructuralFactVisible(view, src, dst));
      if (!visible) continue;
      violated = true;
      // Zoom out the deepest expanded workflow containing either module.
      WorkflowId ws = spec.module(src).workflow;
      WorkflowId wd = spec.module(dst).workflow;
      for (WorkflowId w : {ws, wd}) {
        if (w != spec.root() && prefix.count(w) &&
            (!zoom_target.valid() ||
             hierarchy.Depth(w) > hierarchy.Depth(zoom_target))) {
          zoom_target = w;
        }
      }
      break;
    }
    if (!violated) {
      return ExecZoomOutResult{std::move(prefix), steps, std::move(view)};
    }
    if (!zoom_target.valid()) {
      return Status::PermissionDenied(
          "structural requirement leaks even at the root view; use edge "
          "deletion instead");
    }
    RemoveSubtree(hierarchy, zoom_target, &prefix);
    ++steps;
  }
}

}  // namespace paw
