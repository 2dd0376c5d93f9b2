// Tests for the partitioned LRU result cache.

#include "src/index/result_cache.h"

#include <gtest/gtest.h>

namespace paw {
namespace {

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.Get("g1", "q1").has_value());
  cache.Put("g1", "q1", "answer");
  auto hit = cache.Get("g1", "q1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "answer");
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(ResultCacheTest, GroupsAreIsolated) {
  ResultCache cache(4);
  cache.Put("level0", "q", "public answer");
  cache.Put("level2", "q", "privileged answer");
  EXPECT_EQ(*cache.Get("level0", "q"), "public answer");
  EXPECT_EQ(*cache.Get("level2", "q"), "privileged answer");
  EXPECT_FALSE(cache.Get("level1", "q").has_value());
}

TEST(ResultCacheTest, LruEviction) {
  ResultCache cache(2);
  cache.Put("g", "a", "1");
  cache.Put("g", "b", "2");
  ASSERT_TRUE(cache.Get("g", "a").has_value());  // refresh a
  cache.Put("g", "c", "3");                      // evicts b
  EXPECT_TRUE(cache.Get("g", "a").has_value());
  EXPECT_FALSE(cache.Get("g", "b").has_value());
  EXPECT_TRUE(cache.Get("g", "c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCacheTest, OverwriteRefreshes) {
  ResultCache cache(2);
  cache.Put("g", "a", "old");
  cache.Put("g", "a", "new");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get("g", "a"), "new");
}

TEST(ResultCacheTest, CapacityOneStillWorks) {
  ResultCache cache(1);
  cache.Put("g", "a", "1");
  cache.Put("g", "b", "2");
  EXPECT_FALSE(cache.Get("g", "a").has_value());
  EXPECT_TRUE(cache.Get("g", "b").has_value());
}

TEST(ResultCacheTest, EpochMatchServesHit) {
  ResultCache cache(4);
  cache.Put("g", "q", "answer", /*epoch=*/7);
  auto hit = cache.Get("g", "q", /*epoch=*/7);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "answer");
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ResultCacheTest, EpochMismatchIsAMissAndEvicts) {
  ResultCache cache(4);
  cache.Put("g", "q", "stale", /*epoch=*/7);
  EXPECT_FALSE(cache.Get("g", "q", /*epoch=*/8).has_value());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 1);
  // The stale entry is gone, not just skipped: a later lookup at the
  // original epoch misses too.
  EXPECT_FALSE(cache.Get("g", "q", /*epoch=*/7).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, OverwriteRestampsEpoch) {
  ResultCache cache(4);
  cache.Put("g", "q", "old", /*epoch=*/1);
  cache.Put("g", "q", "new", /*epoch=*/2);
  EXPECT_FALSE(cache.Get("g", "q", /*epoch=*/1).has_value());
  cache.Put("g", "q", "new", /*epoch=*/2);
  auto hit = cache.Get("g", "q", /*epoch=*/2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "new");
}

TEST(ResultCacheTest, DefaultEpochZeroKeepsLegacyBehavior) {
  ResultCache cache(4);
  cache.Put("g", "q", "answer");
  EXPECT_TRUE(cache.Get("g", "q").has_value());
}

TEST(ResultCacheTest, HitRate) {
  ResultCache cache(4);
  cache.Put("g", "a", "1");
  (void)cache.Get("g", "a");
  (void)cache.Get("g", "a");
  (void)cache.Get("g", "miss");
  EXPECT_NEAR(cache.stats().HitRate(), 2.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace paw
