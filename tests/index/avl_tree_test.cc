#include "index/avl_tree_index.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace domd {
namespace {

TEST(AvlTreeIndexTest, BulkBuildIsBalanced) {
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 1023; ++i) {
    entries.push_back({static_cast<double>(i), static_cast<double>(i + 10),
                       i + 1});
  }
  AvlTreeIndex index;
  index.Build(entries);
  // 1023 nodes fit a perfect tree of height 10.
  EXPECT_EQ(index.StartTreeHeight(), 10);
}

TEST(AvlTreeIndexTest, DynamicInsertStaysBalanced) {
  AvlTreeIndex index;
  index.Build({});
  // Adversarial sorted insertion order: a plain BST would degenerate to a
  // 4096-deep list; AVL must keep height <= 1.44 log2(n).
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    index.Insert({static_cast<double>(i), static_cast<double>(i) + 1.0,
                  i + 1});
  }
  const double bound = 1.44 * std::log2(n + 2);
  EXPECT_LE(index.StartTreeHeight(), static_cast<int>(bound) + 1);
}

TEST(AvlTreeIndexTest, CountsUseSubtreeSizesNotScans) {
  // Counting queries must agree with collection across a sweep.
  Rng rng(5);
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 500; ++i) {
    const double s = rng.Uniform(0, 100);
    entries.push_back({s, s + rng.Uniform(0, 40), i + 1});
  }
  AvlTreeIndex index;
  index.Build(entries);
  std::vector<std::int64_t> ids;
  for (double t = 0; t <= 140; t += 7) {
    index.Collect(RccStatusCategory::kActive, t, &ids);
    EXPECT_EQ(index.CountActive(t), ids.size()) << t;
  }
}

TEST(AvlTreeIndexTest, EraseKeepsBalance) {
  AvlTreeIndex index;
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 2048; ++i) {
    entries.push_back({static_cast<double>(i), static_cast<double>(i + 5),
                       i + 1});
  }
  index.Build(entries);
  // Remove the first 3/4 in order — the classic rebalance stress.
  for (int i = 0; i < 1536; ++i) {
    ASSERT_TRUE(index.Erase(entries[static_cast<std::size_t>(i)]).ok());
  }
  EXPECT_EQ(index.size(), 512u);
  const double bound = 1.44 * std::log2(512 + 2);
  EXPECT_LE(index.StartTreeHeight(), static_cast<int>(bound) + 1);
}

TEST(AvlTreeIndexTest, MemoryRoughlyHalfOfNaiveJoin) {
  // Table 6's headline: the AVL index uses about half the memory of the
  // materialized join.
  Rng rng(9);
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 10000; ++i) {
    const double s = rng.Uniform(0, 100);
    entries.push_back({s, s + 10, i + 1});
  }
  AvlTreeIndex avl;
  avl.Build(entries);
  auto naive = MakeLogicalTimeIndex(IndexBackend::kNaiveJoin);
  naive->Build(entries);
  const double ratio = static_cast<double>(naive->MemoryUsageBytes()) /
                       static_cast<double>(avl.MemoryUsageBytes());
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 3.5);
}

TEST(AvlTreeIndexTest, BackendTag) {
  AvlTreeIndex index;
  EXPECT_EQ(index.backend(), IndexBackend::kAvlTree);
}

}  // namespace
}  // namespace domd
