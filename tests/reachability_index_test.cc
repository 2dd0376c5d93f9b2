// Tests for the materialized reachability index.

#include "src/index/reachability_index.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/graph/algorithms.h"
#include "src/repo/workload.h"

namespace paw {
namespace {

TEST(ReachabilityIndexTest, AgreesWithBfs) {
  Rng rng(17);
  Digraph g = RandomDag(&rng, 40, 0.1);
  ReachabilityIndex index(g);
  for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
    for (NodeIndex v = 0; v < g.num_nodes(); ++v) {
      if (u == v) continue;
      EXPECT_EQ(index.Reaches(u, v), PathExists(g, u, v));
    }
  }
}

TEST(ReachabilityIndexTest, RebuildTracksMutation) {
  Digraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ReachabilityIndex index(g);
  EXPECT_TRUE(index.Reaches(0, 1));
  EXPECT_FALSE(index.Reaches(1, 2));
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  EXPECT_FALSE(index.Reaches(0, 2));  // stale until rebuild
  index.Rebuild();
  EXPECT_TRUE(index.Reaches(0, 2));
}

TEST(ReachabilityIndexTest, CountPairsAndBytes) {
  Digraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ReachabilityIndex index(g);
  EXPECT_EQ(index.CountPairs(), 6);
  EXPECT_GT(index.ApproxBytes(), 0);
}

}  // namespace
}  // namespace paw
