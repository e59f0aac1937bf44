#ifndef DOMD_CLUSTER_HASH_RING_H_
#define DOMD_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace domd {
namespace cluster {

/// FNV-1a over the 8 little-endian bytes of `value`, the ring's one hash
/// function. Exposed so tests (and the Python smoke client, which mirrors
/// it) can predict placements byte-for-byte.
std::uint64_t HashKey(std::uint64_t value);

/// The routing key of one avail: avails (and their prediction traffic) are
/// the partitioning unit of the cluster. Ships hash through the same
/// function, so co-locating a ship's avails is a matter of keying on
/// ship_id instead — the ring is key-agnostic.
inline std::uint64_t KeyForAvail(std::int64_t avail_id) {
  return HashKey(static_cast<std::uint64_t>(avail_id));
}
inline std::uint64_t KeyForShip(std::int64_t ship_id) {
  return HashKey(static_cast<std::uint64_t>(ship_id));
}

/// Upper bound on virtual points per shard. Specs come from files and the
/// wire, so the ring's allocation (shards x vnodes points) must stay
/// bounded; 4096 is well above the 256 where balance stops improving.
inline constexpr std::size_t kMaxVnodesPerShard = 4096;

/// A consistent-hash ring over shard ids. Each shard contributes
/// `vnodes_per_shard` virtual points (hash of "shard/<id>/<v>"), keys map
/// to the first point clockwise from their hash, and adding or removing a
/// shard therefore moves only ~1/K of the key space instead of rehashing
/// everything. Construction is deterministic: the same (shards, vnodes)
/// always yields the same placements, on every host, in every process —
/// the router and any shard-aware client agree on ownership with zero
/// coordination.
///
/// Immutable after construction; safe for concurrent readers.
class HashRing {
 public:
  /// An empty ring (no shards, every lookup invalid) — only a placeholder
  /// for containers; real rings come from Create.
  HashRing() = default;

  /// `shard_ids` must be non-empty and duplicate-free; `vnodes_per_shard`
  /// must be in [1, kMaxVnodesPerShard].
  static StatusOr<HashRing> Create(const std::vector<int>& shard_ids,
                                   std::size_t vnodes_per_shard = 64);

  /// The shard owning `key_hash` (first ring point clockwise).
  int OwnerOf(std::uint64_t key_hash) const;

  /// The first `count` *distinct* shards clockwise from `key_hash`,
  /// starting with the owner — the ring-level replica preference order a
  /// router walks when an entire shard (every replica endpoint) is down.
  /// Returns fewer than `count` entries when the ring has fewer shards.
  std::vector<int> ReplicasFor(std::uint64_t key_hash,
                               std::size_t count) const;

  std::size_t num_shards() const { return num_shards_; }
  std::size_t vnodes_per_shard() const { return vnodes_per_shard_; }

 private:
  struct Point {
    std::uint64_t hash;
    int shard;
  };
  std::vector<Point> points_;  ///< sorted by hash; ties broken by shard id.
  std::size_t num_shards_ = 0;
  std::size_t vnodes_per_shard_ = 0;
};

}  // namespace cluster
}  // namespace domd

#endif  // DOMD_CLUSTER_HASH_RING_H_
