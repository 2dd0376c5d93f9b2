#ifndef PAW_PRIVACY_VIEW_CACHE_H_
#define PAW_PRIVACY_VIEW_CACHE_H_

/// \file view_cache.h
/// \brief Memoized per-level privacy views.
///
/// The paper's serving model answers every provenance query through the
/// finest view the principal may see — and both view papers (PAPERS.md)
/// stress that the *same* view must be served consistently across
/// repeated executions and many users. That makes the computed views
/// perfect memo material: a zoom-out result, access view, or mask set
/// depends only on the immutable spec or execution entry and the
/// principal's access level. This cache stores them process-wide so
/// every engine, worker thread, and connection shares one budgeted pool.
///
/// Key structure — `(kind, namespace, spec-or-exec id, level)`:
///  - *kind*: access/structural `SpecView`, execution `ExecZoomOutResult`,
///    or data-privacy `MaskingReport`.
///  - *namespace*: one per `QueryEngine` instance (never reused), so ids
///    from different shards or engine generations cannot alias.
///  - *level*: the principal's access level. A view depends on the entry
///    and the level alone, so all principals at one level share it,
///    whatever their group; the group is only audit attribution.
///
/// Epoch discipline (PR 7's floor rule): every entry is stamped with the
/// engine cut's mutation epoch at computation time, and a lookup passes
/// the reader's current cut epoch. A hit requires
/// `entry.epoch <= cut_epoch`: spec and execution entries are immutable
/// and address-stable once inserted, so anything computed at or below the
/// reader's cut is still exact — which is precisely why *execution*
/// ingest keeps spec-level views hot. A spec-affecting append invalidates
/// through `InvalidateSpec` (wired into the ADD_SPEC handler), and an
/// entry stamped *above* the reader's cut is treated as stale and
/// dropped.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/ids.h"
#include "src/index/sharded_lru.h"
#include "src/privacy/data_privacy.h"
#include "src/query/zoom_out.h"
#include "src/workflow/spec.h"
#include "src/workflow/view.h"

namespace paw {

/// \brief Process-wide, epoch-invalidated cache of computed privacy
/// views. Thread-safe; all methods may be called concurrently.
class PrivacyViewCache {
 public:
  /// Default byte budget (64 MiB) — a few thousand typical views.
  static constexpr size_t kDefaultByteBudget = 64u << 20;

  explicit PrivacyViewCache(size_t byte_budget = kDefaultByteBudget);

  /// \brief The shared process-wide instance served by pawd.
  static PrivacyViewCache& Global();

  /// \brief A fresh namespace id; monotonic, never reused. Each
  /// `QueryEngine` takes one at construction and retires it (via
  /// `InvalidateNamespace`) at destruction.
  static uint64_t NewNamespace();

  // Spec-keyed access/structural views -------------------------------

  std::shared_ptr<const SpecView> GetSpecView(uint64_t ns, int spec_id,
                                              AccessLevel level,
                                              uint64_t cut_epoch);
  void PutSpecView(uint64_t ns, int spec_id, AccessLevel level,
                   uint64_t cut_epoch, std::shared_ptr<const SpecView> view);

  // Execution-keyed zoom-out results ---------------------------------

  std::shared_ptr<const ExecZoomOutResult> GetExecZoom(uint64_t ns,
                                                       ExecutionId exec_id,
                                                       AccessLevel level,
                                                       uint64_t cut_epoch);
  void PutExecZoom(uint64_t ns, ExecutionId exec_id, int spec_id,
                   AccessLevel level, uint64_t cut_epoch,
                   std::shared_ptr<const ExecZoomOutResult> zoom);

  // Execution-keyed data-privacy mask sets ---------------------------

  std::shared_ptr<const MaskingReport> GetMasking(uint64_t ns,
                                                  ExecutionId exec_id,
                                                  AccessLevel level,
                                                  uint64_t cut_epoch);
  void PutMasking(uint64_t ns, ExecutionId exec_id, int spec_id,
                  AccessLevel level, uint64_t cut_epoch,
                  std::shared_ptr<const MaskingReport> mask);

  // Invalidation -----------------------------------------------------

  /// \brief Drops every view derived from `spec_id` in namespace `ns`:
  /// its access/structural views and the zoom-outs/masks of its
  /// executions. Views of other specs are untouched. Returns the number
  /// of entries dropped.
  size_t InvalidateSpec(uint64_t ns, int spec_id);

  /// \brief Retires a whole namespace (engine teardown).
  size_t InvalidateNamespace(uint64_t ns);

  /// \brief Drops everything (tests).
  void Clear();

  /// \brief Adjusts the byte budget at runtime.
  void set_byte_budget(size_t byte_budget);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t bytes = 0;
    size_t entries = 0;
  };
  Stats stats() const;

 private:
  struct Slot {
    std::shared_ptr<const void> value;
    uint64_t ns = 0;
    int spec_id = -1;
    uint64_t epoch = 0;
  };

  std::shared_ptr<const void> Lookup(const std::string& key,
                                     uint64_t cut_epoch);
  void Insert(const std::string& key, std::shared_ptr<const void> value,
              uint64_t ns, int spec_id, uint64_t epoch, size_t bytes);
  void PublishGaugeAndEvictions();

  ShardedLruCache<Slot> cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> published_evictions_{0};
};

/// \brief Approximate heap footprint of cached view kinds, used to charge
/// the byte budget. Estimates, not exact allocator accounting.
size_t ApproxViewBytes(const SpecView& view);
size_t ApproxViewBytes(const ExecZoomOutResult& zoom);
size_t ApproxViewBytes(const MaskingReport& mask);

}  // namespace paw

#endif  // PAW_PRIVACY_VIEW_CACHE_H_
