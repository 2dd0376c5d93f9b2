#ifndef PAW_INDEX_REACHABILITY_INDEX_H_
#define PAW_INDEX_REACHABILITY_INDEX_H_

/// \file reachability_index.h
/// \brief Materialized reachability for provenance queries (paper Sec. 4,
/// "advanced data structures" for efficient search).
///
/// Lineage and structural queries are reachability-bound; the index trades
/// one closure computation for O(1) pair probes. Experiment E8 compares it
/// against per-query BFS.

#include <memory>

#include "src/graph/digraph.h"
#include "src/graph/transitive.h"

namespace paw {

/// \brief A rebuildable transitive-closure index over one digraph.
class ReachabilityIndex {
 public:
  /// \brief Builds the index for `g` (kept by reference; call `Rebuild`
  /// after mutating the graph).
  explicit ReachabilityIndex(const Digraph& g);

  /// \brief Recomputes the closure from scratch after graph changes.
  void Rebuild();

  /// \brief O(1) reachability probe.
  bool Reaches(NodeIndex u, NodeIndex v) const;

  /// \brief Number of reachable pairs.
  int64_t CountPairs() const { return closure_->CountPairs(); }

  /// \brief Approximate index size in bytes.
  int64_t ApproxBytes() const;

 private:
  const Digraph* graph_;
  std::unique_ptr<TransitiveClosure> closure_;
};

}  // namespace paw

#endif  // PAW_INDEX_REACHABILITY_INDEX_H_
