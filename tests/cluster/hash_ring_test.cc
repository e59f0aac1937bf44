#include "cluster/hash_ring.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace domd {
namespace cluster {
namespace {

TEST(HashRingTest, CreateValidatesArguments) {
  EXPECT_FALSE(HashRing::Create({}).ok());
  EXPECT_FALSE(HashRing::Create({1, 2, 1}).ok());
  EXPECT_FALSE(HashRing::Create({1, 2}, 0).ok());
  EXPECT_TRUE(HashRing::Create({1, 2}).ok());
}

TEST(HashRingTest, VnodesAreBoundedBeforeAnyAllocation) {
  EXPECT_TRUE(HashRing::Create({1}, kMaxVnodesPerShard).ok());
  const auto over = HashRing::Create({1}, kMaxVnodesPerShard + 1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  // Would reserve ~1 TB of ring points if it got that far.
  const auto huge = HashRing::Create({1, 2}, 64294967296ull);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashRingTest, HashKeyIsStable) {
  // FNV-1a over little-endian bytes: the same value must hash identically
  // forever — placements are a wire contract between router, shards, and
  // the Python smoke client.
  EXPECT_EQ(HashKey(0), HashKey(0));
  EXPECT_NE(HashKey(0), HashKey(1));
  EXPECT_NE(HashKey(1), HashKey(1ull << 32));
}

TEST(HashRingTest, PlacementIsDeterministicAcrossInstances) {
  auto a = HashRing::Create({0, 1, 2, 3}, 64);
  auto b = HashRing::Create({0, 1, 2, 3}, 64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::int64_t id = 0; id < 1000; ++id) {
    const std::uint64_t key = KeyForAvail(id);
    EXPECT_EQ(a->OwnerOf(key), b->OwnerOf(key)) << "avail " << id;
    EXPECT_EQ(a->ReplicasFor(key, 3), b->ReplicasFor(key, 3));
  }
}

TEST(HashRingTest, ShardIdOrderDoesNotChangePlacement) {
  // The ring is a pure function of the shard-id *set*: spec authors can
  // list shards in any order.
  auto a = HashRing::Create({0, 1, 2, 3}, 64);
  auto b = HashRing::Create({3, 1, 0, 2}, 64);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::int64_t id = 0; id < 500; ++id) {
    EXPECT_EQ(a->OwnerOf(KeyForAvail(id)), b->OwnerOf(KeyForAvail(id)));
  }
}

TEST(HashRingTest, AddingShardMovesKeysOnlyToTheNewShard) {
  // The consistent-hash contract: growing K=4 to K=5 may move a key only
  // if its new owner is the added shard — no key ever migrates between
  // two pre-existing shards.
  auto before = HashRing::Create({0, 1, 2, 3}, 64);
  auto after = HashRing::Create({0, 1, 2, 3, 4}, 64);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  std::size_t moved = 0;
  const std::size_t keys = 4000;
  for (std::int64_t id = 0; id < static_cast<std::int64_t>(keys); ++id) {
    const std::uint64_t key = KeyForAvail(id);
    const int old_owner = before->OwnerOf(key);
    const int new_owner = after->OwnerOf(key);
    if (old_owner != new_owner) {
      EXPECT_EQ(new_owner, 4) << "avail " << id
                              << " moved between surviving shards";
      ++moved;
    }
  }
  // ~1/5 of the key space should move; allow generous slack but reject a
  // full rehash (which would move ~4/5).
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys / 2);
}

TEST(HashRingTest, RemovingShardStrandsOnlyItsKeys) {
  auto before = HashRing::Create({0, 1, 2, 3}, 64);
  auto after = HashRing::Create({0, 1, 3}, 64);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  for (std::int64_t id = 0; id < 2000; ++id) {
    const std::uint64_t key = KeyForAvail(id);
    if (before->OwnerOf(key) != 2) {
      // A key not owned by the removed shard must not move at all.
      EXPECT_EQ(before->OwnerOf(key), after->OwnerOf(key)) << "avail " << id;
    } else {
      EXPECT_NE(after->OwnerOf(key), 2);
    }
  }
}

TEST(HashRingTest, LoadIsRoughlyBalanced) {
  // 256 vnodes per shard: the resolution where the ring's balance is worth
  // asserting on. (At the default 64 a shard can still land near 5% of a
  // 4-shard ring — acceptable for routing, too lumpy for a tight test.)
  auto ring = HashRing::Create({0, 1, 2, 3}, 256);
  ASSERT_TRUE(ring.ok());
  std::map<int, std::size_t> owned;
  const std::size_t keys = 8000;
  for (std::int64_t id = 0; id < static_cast<std::int64_t>(keys); ++id) {
    owned[ring->OwnerOf(KeyForAvail(id))] += 1;
  }
  ASSERT_EQ(owned.size(), 4u);
  for (const auto& [shard, count] : owned) {
    // Perfect balance is keys/4 = 2000; accept a 2x band either way.
    EXPECT_GT(count, keys / 8) << "shard " << shard;
    EXPECT_LT(count, keys / 2) << "shard " << shard;
  }
}

TEST(HashRingTest, ReplicasForStartsAtOwnerAndIsDistinct) {
  auto ring = HashRing::Create({0, 1, 2, 3}, 64);
  ASSERT_TRUE(ring.ok());
  for (std::int64_t id = 0; id < 500; ++id) {
    const std::uint64_t key = KeyForAvail(id);
    const std::vector<int> replicas = ring->ReplicasFor(key, 3);
    ASSERT_EQ(replicas.size(), 3u);
    EXPECT_EQ(replicas[0], ring->OwnerOf(key));
    const std::set<int> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), replicas.size()) << "avail " << id;
  }
}

TEST(HashRingTest, ReplicasForCapsAtRingSize) {
  auto ring = HashRing::Create({7, 9}, 8);
  ASSERT_TRUE(ring.ok());
  const std::vector<int> replicas = ring->ReplicasFor(KeyForAvail(42), 5);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
}

TEST(HashRingTest, ShipAndAvailKeysShareTheHash) {
  // Co-locating a ship's avails is a pure keying decision: the same id
  // keyed as ship or avail lands identically.
  EXPECT_EQ(KeyForAvail(123), KeyForShip(123));
}

}  // namespace
}  // namespace cluster
}  // namespace domd
