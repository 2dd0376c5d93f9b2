#ifndef PAW_QUERY_ENGINE_H_
#define PAW_QUERY_ENGINE_H_

/// \file engine.h
/// \brief The privacy-preserving query engine facade (paper Sec. 4).
///
/// Combines the repository, access control, indexes, ranking, masking and
/// zoom-out into the interface a search UI would call. Every entry point
/// takes a principal; answers never reveal anything beyond the
/// principal's access view and the spec's policy.
///
/// Memoization: every cached privacy answer (keyword results, access
/// views, zoom-outs, masks) depends only on the entry and the principal's
/// access level, so all principals at one level share it, whatever their
/// group. The group stays audit attribution only.
///
/// Concurrency (MVCC read path): the engine pins a `RepositoryView` and
/// serves every query from that cut. Before serving it catches up to the
/// repository's current mutation epoch by extending the view and applying
/// index deltas (never a from-scratch rebuild) under a writer lock;
/// serving itself holds only a reader lock, so queries run concurrently
/// with each other and with single-writer repository appends. A query
/// observes a cut at least as fresh as the epoch at its arrival.

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/index/inverted_index.h"
#include "src/index/result_cache.h"
#include "src/privacy/access_control.h"
#include "src/privacy/data_privacy.h"
#include "src/privacy/view_cache.h"
#include "src/query/keyword_search.h"
#include "src/query/structural_query.h"
#include "src/query/zoom_out.h"
#include "src/repo/repository.h"

namespace paw {

/// \brief Engine construction options.
struct EngineOptions {
  size_t cache_capacity = 256;
  KeywordSearchOptions search;
  /// Memoize computed privacy views (zoom-outs, access views, masks) in
  /// the process-wide `PrivacyViewCache`. Off = recompute per query.
  bool view_cache = true;
  /// Cache instance override (tests); nullptr = the Global() cache.
  PrivacyViewCache* view_cache_instance = nullptr;
};

/// \brief A lineage answer rendered for one principal.
struct LineageAnswer {
  /// The prefix the answer was rendered at (after zoom-out).
  Prefix prefix;
  /// Zoom-out steps taken for structural privacy.
  int zoom_steps = 0;
  /// Rendered provenance rows: "node -> node [item=value,...]" with
  /// masked values for labels above the principal's level.
  std::vector<std::string> rows;
};

/// \brief Privacy-preserving query engine over one repository.
///
/// Thread-safe: query entry points may be called concurrently with each
/// other and with appends to the underlying repository (single-writer).
class QueryEngine {
 public:
  QueryEngine(const Repository& repo, const AccessControl& acl,
              EngineOptions options = {});

  /// Retires this engine's view-cache namespace so stale entries from a
  /// torn-down engine can never be served to a successor.
  ~QueryEngine();

  /// \brief Catches the pinned view and indexes up to the repository's
  /// current mutation epoch by applying deltas. Queries call this
  /// implicitly; it exists for callers that want to pay the catch-up
  /// cost eagerly. Cheap no-op when already current.
  void RefreshIndexes();

  /// \brief Keyword search at the principal's level; cached per level,
  /// invalidated when the cut's spec slice grows.
  Result<std::vector<KeywordAnswer>> Search(
      PrincipalId principal, const std::vector<std::string>& terms);

  /// \brief Upstream provenance of one data item, rendered through the
  /// principal's access view with masking and structural zoom-out.
  Result<LineageAnswer> Lineage(PrincipalId principal, ExecutionId exec_id,
                                DataItemId item);

  /// \brief Structural pattern query against the principal's view of one
  /// specification.
  Result<std::vector<PatternMatch>> Structural(
      PrincipalId principal, int spec_id, const StructuralPattern& pattern);

  /// \brief Pinned-cut lookup of the `ordinal`-th execution of a spec.
  /// The returned entry pointer is immutable and address-stable, so it
  /// stays valid after the call. NotFound when the spec has fewer than
  /// `ordinal + 1` executions at the engine's cut.
  Result<const ExecutionEntry*> ExecutionByOrdinal(int spec_id,
                                                   int ordinal);

  /// \brief Pinned-cut spec entry pointer, or nullptr when `spec_id` is
  /// beyond the engine's current cut. The entry is immutable and
  /// address-stable, so the pointer stays valid after the call.
  const SpecEntry* SpecEntryAt(int spec_id) const;

  /// \brief One hit of an execution search.
  struct ExecutionSearchResult {
    ExecutionId exec_id;
    /// The first match found (bindings per pattern variable).
    ExecutionMatch match;
    int num_matches = 0;
    /// Rendered provenance of the activation bound to `provenance_var`.
    LineageAnswer provenance;
  };

  /// \brief The paper's exemplar query (Sec. 4): find executions where
  /// the pattern holds — e.g. "Expand SNP Set was executed before Query
  /// OMIM" — and return the provenance information for the activation
  /// bound to `provenance_var`. Matching is confined to modules inside
  /// the principal's access view; provenance rows are masked and
  /// zoomed-out like `Lineage` answers.
  Result<std::vector<ExecutionSearchResult>> SearchExecutions(
      PrincipalId principal, const StructuralPattern& pattern,
      int provenance_var);

  /// \brief Per-item visibility mask of one execution for the principal,
  /// served from the privacy-view cache when possible. The mask depends
  /// only on the immutable execution entry and the principal's level, so
  /// hits are exact and shared by every principal at that level. When
  /// `cache_hit` is given, it is set to whether the view cache served the
  /// mask.
  Result<std::shared_ptr<const MaskingReport>> ExecutionMask(
      PrincipalId principal, ExecutionId exec_id, bool* cache_hit = nullptr);

  /// \brief Evicts every memoized view derived from `spec_id` (its
  /// access/structural views and its executions' zoom-outs/masks). The
  /// ADD_SPEC path calls this when the spec slice grows — the epoch-floor
  /// discipline that keeps views hot across *execution* ingest.
  void InvalidateSpecViews(int spec_id);

  /// \brief Snapshot of the cache counters.
  CacheStats cache_stats() const;

  /// \brief The keyword index. Quiescent-only: do not touch while other
  /// threads may be querying (catch-up mutates the index in place).
  const InvertedIndex& index() const { return index_; }

 private:
  /// Advances the pinned view/index to cover at least `repo_`'s epoch
  /// as observed on entry. See class comment.
  void CatchUp();

  /// Shared answer rendering. Zooms out for structural policy (memoized
  /// per (exec, level) when the view cache is on; `cut_epoch`, the
  /// serving cut's epoch, is the floor stamped on a cached zoom-out).
  /// Then walks the zoomed view's successor lists and renders one row per
  /// edge between view nodes that show a `cone` node (exec node ids, in
  /// any order), appending labels, item names and item values (masked
  /// above the principal's level, read in place) into each row's string.
  /// `item` (when valid) is appended as an explicit final row.
  Result<LineageAnswer> RenderCone(const SpecEntry& spec_entry, int spec_id,
                                   ExecutionId exec_id,
                                   const Execution& exec,
                                   const Principal& principal,
                                   const std::vector<NodeIndex>& cone,
                                   DataItemId item,
                                   uint64_t cut_epoch) const;

  /// The view cache to consult, or nullptr when memoization is off.
  PrivacyViewCache* view_cache() const;

  const Repository& repo_;
  const AccessControl& acl_;
  EngineOptions options_;

  /// This engine's namespace in the process-wide privacy-view cache.
  const uint64_t view_ns_;

  /// Reader/writer lock over the pinned view and indexes: exclusive for
  /// catch-up (view extension + index deltas), shared for serving.
  mutable std::shared_mutex mu_;
  RepositoryView view_;
  InvertedIndex index_;
  TfIdfScorer scorer_;

  /// The keyword result cache holds decoded answers, partitioned by
  /// level. It has its own lock so cache bookkeeping never serializes
  /// whole queries.
  mutable std::mutex cache_mu_;
  BasicResultCache<std::vector<KeywordAnswer>> cache_;
};

}  // namespace paw

#endif  // PAW_QUERY_ENGINE_H_
