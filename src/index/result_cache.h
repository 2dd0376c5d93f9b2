#ifndef PAW_INDEX_RESULT_CACHE_H_
#define PAW_INDEX_RESULT_CACHE_H_

/// \file result_cache.h
/// \brief Partitioned LRU answer cache (paper Sec. 4, "consider user
/// groups when utilizing cached information during query processing").
///
/// The key space is partitioned by a tag: two lookups share an entry only
/// when both tag and key match. The caller chooses the tag to be exactly
/// what the cached answer depends on. The query engine tags keyword
/// answers with the principal's access level, so every principal at one
/// level shares them whatever their group. Experiment E9 measures hit
/// rates of string answers under Zipf query mixes and several partitions.

#include <algorithm>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace paw {

/// \brief Hit/miss statistics.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;

  double HitRate() const {
    int64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// \brief An LRU map from (group, key) to answers of type `Value`.
///
/// Entries are stamped with the repository epoch they were computed at;
/// a `Get` whose `epoch` differs from the stored stamp is a miss and
/// drops the stale entry, so the cache self-invalidates as the store
/// mutates instead of serving answers from a dead cut. Callers that do
/// not version their data may leave the epoch at its default (0 == 0
/// always matches). Not thread-safe; callers lock around it.
template <typename Value>
class BasicResultCache {
 public:
  /// Creates a cache holding at most `capacity` entries (>= 1).
  explicit BasicResultCache(size_t capacity)
      : capacity_(std::max<size_t>(1, capacity)) {}

  /// \brief Returns a copy of the cached answer, refreshing recency;
  /// nullopt on miss. An entry stored at a different epoch is erased and
  /// counted as a miss.
  std::optional<Value> Get(const std::string& group, const std::string& key,
                           uint64_t epoch = 0) {
    auto it = entries_.find(FullKey(group, key));
    if (it == entries_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    if (it->second->epoch != epoch) {
      // Stale cut: the store mutated since this answer was computed.
      lru_.erase(it->second);
      entries_.erase(it);
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  /// \brief Inserts/overwrites an answer stamped with `epoch`, evicting
  /// the LRU entry if full.
  void Put(const std::string& group, const std::string& key, Value value,
           uint64_t epoch = 0) {
    std::string full = FullKey(group, key);
    auto it = entries_.find(full);
    if (it != entries_.end()) {
      it->second->value = std::move(value);
      it->second->epoch = epoch;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      entries_.erase(lru_.back().full_key);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(Entry{full, std::move(value), epoch});
    entries_[std::move(full)] = lru_.begin();
  }

  size_t size() const { return entries_.size(); }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string full_key;
    Value value;
    uint64_t epoch = 0;
  };

  static std::string FullKey(const std::string& group,
                             const std::string& key) {
    return group + "\x1f" + key;
  }

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, typename std::list<Entry>::iterator>
      entries_;
  CacheStats stats_;
};

/// \brief The string-valued cache: serialized answers, as E9 measures.
using ResultCache = BasicResultCache<std::string>;

}  // namespace paw

#endif  // PAW_INDEX_RESULT_CACHE_H_
