#include "src/index/reachability_index.h"

namespace paw {

ReachabilityIndex::ReachabilityIndex(const Digraph& g) : graph_(&g) {
  Rebuild();
}

void ReachabilityIndex::Rebuild() {
  closure_ = std::make_unique<TransitiveClosure>(
      TransitiveClosure::Compute(*graph_));
}

bool ReachabilityIndex::Reaches(NodeIndex u, NodeIndex v) const {
  return closure_->Reaches(u, v);
}

int64_t ReachabilityIndex::ApproxBytes() const {
  int64_t n = graph_->num_nodes();
  return n * ((n + 63) / 64) * 8;
}

}  // namespace paw
