// Tests for the memoized privacy-view cache and its sharded-LRU base:
// epoch-floor semantics, exact spec invalidation, namespace isolation,
// byte-budget eviction, and concurrent access (runs under ASan/TSan).

#include "src/privacy/view_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/index/sharded_lru.h"
#include "src/privacy/data_privacy.h"
#include "src/repo/disease.h"
#include "src/repo/repository.h"
#include "src/workflow/view.h"

namespace paw {
namespace {

// ---- ShardedLruCache ------------------------------------------------

TEST(ShardedLruTest, PutGetAndReplace) {
  ShardedLruCache<int> cache(/*byte_budget=*/1 << 20, /*num_shards=*/4);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", 1, 100);
  cache.Put("b", 2, 100);
  ASSERT_TRUE(cache.Get("a").has_value());
  EXPECT_EQ(*cache.Get("a"), 1);
  cache.Put("a", 3, 100);  // replace
  EXPECT_EQ(*cache.Get("a"), 3);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes, 200u);
}

TEST(ShardedLruTest, ByteBudgetEvictsColdEntries) {
  // One shard so the LRU order is deterministic across keys.
  ShardedLruCache<int> cache(/*byte_budget=*/350, /*num_shards=*/1);
  cache.Put("a", 1, 100);
  cache.Put("b", 2, 100);
  cache.Put("c", 3, 100);
  ASSERT_TRUE(cache.Get("a").has_value());  // promote "a"
  cache.Put("d", 4, 100);                   // over budget: evicts "b"
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 350u);
}

TEST(ShardedLruTest, OversizedEntryAdmittedAlone) {
  ShardedLruCache<int> cache(/*byte_budget=*/100, /*num_shards=*/1);
  cache.Put("big", 1, 10000);
  // An entry larger than the whole budget still serves (it just lives
  // alone); the next insert evicts it.
  EXPECT_TRUE(cache.Get("big").has_value());
  cache.Put("next", 2, 50);
  EXPECT_FALSE(cache.Get("big").has_value());
  EXPECT_TRUE(cache.Get("next").has_value());
}

TEST(ShardedLruTest, EraseAndEraseIf) {
  ShardedLruCache<int> cache(1 << 20, 4);
  cache.Put("x:1", 1, 10);
  cache.Put("x:2", 2, 10);
  cache.Put("y:1", 3, 10);
  EXPECT_TRUE(cache.Erase("x:1"));
  EXPECT_FALSE(cache.Erase("x:1"));
  const size_t dropped = cache.EraseIf(
      [](const std::string& key, const int&) { return key[0] == 'x'; });
  EXPECT_EQ(dropped, 1u);
  EXPECT_FALSE(cache.Get("x:2").has_value());
  EXPECT_TRUE(cache.Get("y:1").has_value());
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// ---- PrivacyViewCache -----------------------------------------------

std::shared_ptr<const MaskingReport> MakeMask(int visible) {
  auto mask = std::make_shared<MaskingReport>();
  mask->visible.assign(static_cast<size_t>(visible), true);
  mask->num_visible = visible;
  return mask;
}

TEST(PrivacyViewCacheTest, MaskingRoundTrip) {
  PrivacyViewCache cache;
  const uint64_t ns = PrivacyViewCache::NewNamespace();
  EXPECT_EQ(cache.GetMasking(ns, ExecutionId(0), /*level=*/1, 5), nullptr);
  cache.PutMasking(ns, ExecutionId(0), /*spec_id=*/0, /*level=*/1,
                   /*cut_epoch=*/5, MakeMask(3));
  auto hit = cache.GetMasking(ns, ExecutionId(0), 1, 5);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->num_visible, 3);
  // Same execution, different level: distinct entry.
  EXPECT_EQ(cache.GetMasking(ns, ExecutionId(0), 2, 5), nullptr);
  const PrivacyViewCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(PrivacyViewCacheTest, EpochFloorRejectsEntriesAboveTheCut) {
  PrivacyViewCache cache;
  const uint64_t ns = PrivacyViewCache::NewNamespace();
  cache.PutMasking(ns, ExecutionId(7), 0, /*level=*/1, /*cut_epoch=*/10,
                   MakeMask(1));
  // A reader whose cut is older than the entry must not see it (the
  // entry is from that reader's "future"); the stale entry is dropped.
  EXPECT_EQ(cache.GetMasking(ns, ExecutionId(7), 1, 9), nullptr);
  EXPECT_EQ(cache.GetMasking(ns, ExecutionId(7), 1, 10), nullptr);
  // Readers at or past the entry's epoch hit.
  cache.PutMasking(ns, ExecutionId(7), 0, 1, 10, MakeMask(1));
  EXPECT_NE(cache.GetMasking(ns, ExecutionId(7), 1, 10), nullptr);
  EXPECT_NE(cache.GetMasking(ns, ExecutionId(7), 1, 11), nullptr);
}

TEST(PrivacyViewCacheTest, InvalidateSpecDropsExactlyThatSpec) {
  Repository repo;
  auto spec = BuildDiseaseSpec();
  ASSERT_TRUE(spec.ok());
  const int sid =
      repo.AddSpecification(std::move(spec).value(), DiseasePolicy())
          .value();
  const SpecEntry& entry = repo.entry(sid);
  Prefix access = entry.hierarchy.AccessPrefix(entry.spec, 2);
  auto view = ExpandPrefix(entry.spec, entry.hierarchy, access);
  ASSERT_TRUE(view.ok());
  auto shared_view =
      std::make_shared<const SpecView>(std::move(view).value());

  PrivacyViewCache cache;
  const uint64_t ns = PrivacyViewCache::NewNamespace();
  // Spec 1: one spec-keyed view and one exec-keyed mask. Spec 2: one
  // exec-keyed mask for a different execution.
  cache.PutSpecView(ns, /*spec_id=*/1, /*level=*/2, 3, shared_view);
  cache.PutMasking(ns, ExecutionId(0), /*spec_id=*/1, 2, 3, MakeMask(2));
  cache.PutMasking(ns, ExecutionId(1), /*spec_id=*/2, 2, 3, MakeMask(4));

  EXPECT_EQ(cache.InvalidateSpec(ns, 1), 2u);
  EXPECT_EQ(cache.GetSpecView(ns, 1, 2, 3), nullptr);
  EXPECT_EQ(cache.GetMasking(ns, ExecutionId(0), 2, 3), nullptr);
  // The other spec's entries survive.
  EXPECT_NE(cache.GetMasking(ns, ExecutionId(1), 2, 3), nullptr);
  EXPECT_GT(ApproxViewBytes(*shared_view), 0u);
}

TEST(PrivacyViewCacheTest, NamespacesIsolateEngines) {
  PrivacyViewCache cache;
  const uint64_t ns1 = PrivacyViewCache::NewNamespace();
  const uint64_t ns2 = PrivacyViewCache::NewNamespace();
  EXPECT_NE(ns1, ns2);
  cache.PutMasking(ns1, ExecutionId(0), 0, /*level=*/1, 1, MakeMask(1));
  cache.PutMasking(ns2, ExecutionId(0), 0, /*level=*/1, 1, MakeMask(9));
  // Same (exec, level, epoch), different namespace: no aliasing.
  EXPECT_EQ(cache.GetMasking(ns1, ExecutionId(0), 1, 1)->num_visible, 1);
  EXPECT_EQ(cache.GetMasking(ns2, ExecutionId(0), 1, 1)->num_visible, 9);
  EXPECT_EQ(cache.InvalidateNamespace(ns1), 1u);
  EXPECT_EQ(cache.GetMasking(ns1, ExecutionId(0), 1, 1), nullptr);
  EXPECT_NE(cache.GetMasking(ns2, ExecutionId(0), 1, 1), nullptr);
}

TEST(PrivacyViewCacheTest, ByteBudgetBoundsResidentBytes) {
  PrivacyViewCache cache(/*byte_budget=*/16 * 1024);
  const uint64_t ns = PrivacyViewCache::NewNamespace();
  for (int i = 0; i < 200; ++i) {
    cache.PutMasking(ns, ExecutionId(i), 0, /*level=*/1, 1, MakeMask(64));
  }
  const PrivacyViewCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, 16u * 1024u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 200u);
}

TEST(PrivacyViewCacheTest, ConcurrentMixedUseIsSafe) {
  PrivacyViewCache cache(/*byte_budget=*/32 * 1024);
  const uint64_t ns = PrivacyViewCache::NewNamespace();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, ns, t] {
      for (int i = 0; i < 500; ++i) {
        const ExecutionId exec(i % 37);
        const AccessLevel level = t % 2;
        if (i % 7 == 0) {
          cache.PutMasking(ns, exec, i % 5, level, 1, MakeMask(i % 16));
        } else if (i % 31 == 0) {
          cache.InvalidateSpec(ns, i % 5);
        } else {
          auto hit = cache.GetMasking(ns, exec, level, 1);
          if (hit != nullptr) {
            // Values stay internally consistent under concurrency.
            EXPECT_EQ(hit->num_visible,
                      static_cast<int>(hit->visible.size()));
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const PrivacyViewCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

}  // namespace
}  // namespace paw
