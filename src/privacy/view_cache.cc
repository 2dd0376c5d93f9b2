#include "src/privacy/view_cache.h"

#include <utility>

#include "src/common/metrics.h"

namespace paw {
namespace {

Counter& ViewCacheHitsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_privacy_view_cache_hits_total");
  return c;
}

Counter& ViewCacheMissesTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_privacy_view_cache_misses_total");
  return c;
}

Counter& ViewCacheEvictionsTotal() {
  static Counter& c = MetricsRegistry::Global().GetCounter(
      "paw_privacy_view_cache_evictions_total");
  return c;
}

Gauge& ViewCacheBytes() {
  static Gauge& g =
      MetricsRegistry::Global().GetGauge("paw_privacy_view_cache_bytes");
  return g;
}

/// Key layout: `<kind>:<ns>:<id>:<level>`. Both invalidations walk
/// entries via the stored Slot fields, not the key.
std::string MakeKey(char kind, uint64_t ns, int64_t id, AccessLevel level) {
  std::string key;
  key.reserve(32);
  key += kind;
  key += ':';
  key += std::to_string(ns);
  key += ':';
  key += std::to_string(id);
  key += ':';
  key += std::to_string(level);
  return key;
}

size_t StringVecBytes(const std::vector<std::string>& v) {
  size_t b = v.size() * sizeof(std::string);
  for (const std::string& s : v) b += s.capacity();
  return b;
}

}  // namespace

PrivacyViewCache::PrivacyViewCache(size_t byte_budget)
    : cache_(byte_budget) {}

PrivacyViewCache& PrivacyViewCache::Global() {
  static PrivacyViewCache* cache = new PrivacyViewCache();
  return *cache;
}

uint64_t PrivacyViewCache::NewNamespace() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const void> PrivacyViewCache::Lookup(const std::string& key,
                                                     uint64_t cut_epoch) {
  std::optional<Slot> slot = cache_.Get(key);
  // Epoch floor: a hit must have been computed at or below the reader's
  // cut. Entries are derived from immutable, address-stable repository
  // entries, so at-or-below means still exact; above means the key
  // aliases a different generation — drop it.
  if (slot.has_value() && slot->epoch > cut_epoch) {
    cache_.Erase(key);
    slot.reset();
  }
  if (!slot.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    ViewCacheMissesTotal().Add();
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  ViewCacheHitsTotal().Add();
  return slot->value;
}

void PrivacyViewCache::Insert(const std::string& key,
                              std::shared_ptr<const void> value, uint64_t ns,
                              int spec_id, uint64_t epoch, size_t bytes) {
  Slot slot;
  slot.value = std::move(value);
  slot.ns = ns;
  slot.spec_id = spec_id;
  slot.epoch = epoch;
  cache_.Put(key, std::move(slot), bytes);
  PublishGaugeAndEvictions();
}

void PrivacyViewCache::PublishGaugeAndEvictions() {
  const ShardedLruCache<Slot>::Stats st = cache_.stats();
  ViewCacheBytes().Set(static_cast<int64_t>(st.bytes));
  // Counters only go up: publish the delta since the last sync.
  uint64_t prev = published_evictions_.load(std::memory_order_relaxed);
  while (st.evictions > prev) {
    if (published_evictions_.compare_exchange_weak(
            prev, st.evictions, std::memory_order_relaxed)) {
      ViewCacheEvictionsTotal().Add(st.evictions - prev);
      break;
    }
  }
}

std::shared_ptr<const SpecView> PrivacyViewCache::GetSpecView(
    uint64_t ns, int spec_id, AccessLevel level, uint64_t cut_epoch) {
  return std::static_pointer_cast<const SpecView>(
      Lookup(MakeKey('s', ns, spec_id, level), cut_epoch));
}

void PrivacyViewCache::PutSpecView(uint64_t ns, int spec_id,
                                   AccessLevel level, uint64_t cut_epoch,
                                   std::shared_ptr<const SpecView> view) {
  const size_t bytes = ApproxViewBytes(*view);
  Insert(MakeKey('s', ns, spec_id, level), std::move(view), ns, spec_id,
         cut_epoch, bytes);
}

std::shared_ptr<const ExecZoomOutResult> PrivacyViewCache::GetExecZoom(
    uint64_t ns, ExecutionId exec_id, AccessLevel level,
    uint64_t cut_epoch) {
  return std::static_pointer_cast<const ExecZoomOutResult>(
      Lookup(MakeKey('z', ns, exec_id.value(), level), cut_epoch));
}

void PrivacyViewCache::PutExecZoom(
    uint64_t ns, ExecutionId exec_id, int spec_id, AccessLevel level,
    uint64_t cut_epoch, std::shared_ptr<const ExecZoomOutResult> zoom) {
  const size_t bytes = ApproxViewBytes(*zoom);
  Insert(MakeKey('z', ns, exec_id.value(), level), std::move(zoom), ns,
         spec_id, cut_epoch, bytes);
}

std::shared_ptr<const MaskingReport> PrivacyViewCache::GetMasking(
    uint64_t ns, ExecutionId exec_id, AccessLevel level,
    uint64_t cut_epoch) {
  return std::static_pointer_cast<const MaskingReport>(
      Lookup(MakeKey('m', ns, exec_id.value(), level), cut_epoch));
}

void PrivacyViewCache::PutMasking(uint64_t ns, ExecutionId exec_id,
                                  int spec_id, AccessLevel level,
                                  uint64_t cut_epoch,
                                  std::shared_ptr<const MaskingReport> mask) {
  const size_t bytes = ApproxViewBytes(*mask);
  Insert(MakeKey('m', ns, exec_id.value(), level), std::move(mask), ns,
         spec_id, cut_epoch, bytes);
}

size_t PrivacyViewCache::InvalidateSpec(uint64_t ns, int spec_id) {
  const size_t dropped = cache_.EraseIf([&](const std::string&,
                                            const Slot& slot) {
    return slot.ns == ns && slot.spec_id == spec_id;
  });
  PublishGaugeAndEvictions();
  return dropped;
}

size_t PrivacyViewCache::InvalidateNamespace(uint64_t ns) {
  const size_t dropped = cache_.EraseIf(
      [&](const std::string&, const Slot& slot) { return slot.ns == ns; });
  PublishGaugeAndEvictions();
  return dropped;
}

void PrivacyViewCache::Clear() {
  cache_.Clear();
  PublishGaugeAndEvictions();
}

void PrivacyViewCache::set_byte_budget(size_t byte_budget) {
  cache_.set_byte_budget(byte_budget);
}

PrivacyViewCache::Stats PrivacyViewCache::stats() const {
  Stats st;
  const ShardedLruCache<Slot>::Stats inner = cache_.stats();
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = inner.evictions;
  st.bytes = inner.bytes;
  st.entries = inner.entries;
  return st;
}

size_t ApproxViewBytes(const SpecView& view) {
  size_t b = sizeof(SpecView);
  b += view.visible_modules().size() * (sizeof(ModuleId) + 48);
  b += static_cast<size_t>(view.graph().num_nodes()) * 16;
  b += static_cast<size_t>(view.graph().num_edges()) * 64;
  for (const auto& [u, v] : view.graph().Edges()) {
    b += StringVecBytes(view.EdgeLabels(u, v));
  }
  b += view.prefix().size() * 32;
  return b;
}

size_t ApproxViewBytes(const ExecZoomOutResult& zoom) {
  return sizeof(ExecZoomOutResult) + zoom.view.HeapBytes() +
         zoom.final_prefix.size() * 32;
}

size_t ApproxViewBytes(const MaskingReport& mask) {
  return sizeof(MaskingReport) + mask.visible.size() / 8 + 8;
}

}  // namespace paw
