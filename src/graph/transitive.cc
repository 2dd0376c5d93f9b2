#include "src/graph/transitive.h"

#include <bit>

#include "src/common/logging.h"
#include "src/graph/algorithms.h"

namespace paw {

TransitiveClosure TransitiveClosure::Compute(const Digraph& g) {
  const NodeIndex n = g.num_nodes();
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  TransitiveClosure tc(n, words);
  if (n == 0) return tc;

  auto order_result = TopologicalOrder(g);
  if (order_result.ok()) {
    // DAG fast path: sweep in reverse topological order, OR-ing successor
    // rows into each node's row.
    const std::vector<NodeIndex>& order = order_result.value();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeIndex u = *it;
      uint64_t* row = tc.Row(u);
      for (NodeIndex v : g.OutNeighbors(u)) {
        row[size_t(v) / 64] |= uint64_t{1} << (size_t(v) % 64);
        const uint64_t* vrow = tc.Row(v);
        for (size_t w = 0; w < words; ++w) row[w] |= vrow[w];
      }
    }
    return tc;
  }

  // General digraph fallback: BFS per node.
  for (NodeIndex u = 0; u < n; ++u) {
    uint64_t* row = tc.Row(u);
    for (NodeIndex v : ReachableFrom(g, u)) {
      if (v == u) continue;
      row[size_t(v) / 64] |= uint64_t{1} << (size_t(v) % 64);
    }
    // A node on a cycle through itself reaches itself; detect via any
    // successor that reaches u.
    for (NodeIndex v : g.OutNeighbors(u)) {
      if (v == u || PathExists(g, v, u)) {
        row[size_t(u) / 64] |= uint64_t{1} << (size_t(u) % 64);
        break;
      }
    }
  }
  return tc;
}

bool TransitiveClosure::Reaches(NodeIndex u, NodeIndex v) const {
  if (u < 0 || v < 0 || u >= n_ || v >= n_) return false;
  return (Row(u)[size_t(v) / 64] >> (size_t(v) % 64)) & 1;
}

int64_t TransitiveClosure::CountPairs() const {
  int64_t total = 0;
  for (NodeIndex u = 0; u < n_; ++u) {
    const uint64_t* row = Row(u);
    for (size_t w = 0; w < words_per_row_; ++w) {
      total += std::popcount(row[w]);
    }
    if (Reaches(u, u)) --total;  // irreflexive count
  }
  return total;
}

std::vector<NodeIndex> TransitiveClosure::RowOf(NodeIndex u) const {
  std::vector<NodeIndex> out;
  if (u < 0 || u >= n_) return out;
  for (NodeIndex v = 0; v < n_; ++v) {
    if (Reaches(u, v)) out.push_back(v);
  }
  return out;
}

Result<std::vector<std::pair<NodeIndex, NodeIndex>>>
TransitiveClosure::PairsMinus(const TransitiveClosure& other) const {
  if (n_ != other.n_) {
    return Status::InvalidArgument("closure size mismatch");
  }
  std::vector<std::pair<NodeIndex, NodeIndex>> out;
  for (NodeIndex u = 0; u < n_; ++u) {
    const uint64_t* a = Row(u);
    const uint64_t* b = other.Row(u);
    for (size_t w = 0; w < words_per_row_; ++w) {
      uint64_t diff = a[w] & ~b[w];
      while (diff) {
        int bit = std::countr_zero(diff);
        diff &= diff - 1;
        NodeIndex v = static_cast<NodeIndex>(w * 64 + size_t(bit));
        if (v != u) out.emplace_back(u, v);
      }
    }
  }
  return out;
}

Result<Digraph> TransitiveReduction(const Digraph& g) {
  PAW_ASSIGN_OR_RETURN(std::vector<NodeIndex> order, TopologicalOrder(g));
  (void)order;
  TransitiveClosure tc = TransitiveClosure::Compute(g);
  Digraph reduced(g.num_nodes());
  for (const auto& [u, v] : g.Edges()) {
    // Edge u->v is redundant iff some other successor w of u reaches v.
    bool redundant = false;
    for (NodeIndex w : g.OutNeighbors(u)) {
      if (w != v && tc.Reaches(w, v)) {
        redundant = true;
        break;
      }
    }
    if (!redundant) {
      Status st = reduced.AddEdge(u, v);
      PAW_CHECK(st.ok()) << st.ToString();
    }
  }
  return reduced;
}

}  // namespace paw
