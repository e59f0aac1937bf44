// Tests for the modeling-view cache: dataset fingerprint sensitivity,
// pointer-sharing on hits, byte-budgeted LRU eviction, the zero-budget
// bypass, and concurrent GetOrBuild (run under TSan in CI).

#include "cache/view_cache.h"

#include <gtest/gtest.h>

#include <bit>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "common/rng.h"
#include "data/logical_time.h"
#include "data/splits.h"
#include "synth/generator.h"

namespace domd {
namespace {

Dataset SmallData(std::uint64_t seed = 17) {
  SynthConfig config;
  config.seed = seed;
  config.num_avails = 24;
  config.mean_rccs_per_avail = 30;
  config.ongoing_fraction = 0.1;
  return GenerateDataset(config);
}

std::vector<std::int64_t> AllIds(const Dataset& data) {
  std::vector<std::int64_t> ids;
  for (const Avail& avail : data.avails.rows()) ids.push_back(avail.id);
  return ids;
}

bool ViewsBitIdentical(const ModelingView& a, const ModelingView& b) {
  if (a.avail_ids != b.avail_ids) return false;
  if (a.labels.size() != b.labels.size()) return false;
  for (std::size_t i = 0; i < a.labels.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.labels[i]) !=
        std::bit_cast<std::uint64_t>(b.labels[i])) {
      return false;
    }
  }
  if (a.static_x.rows() != b.static_x.rows() ||
      a.static_x.cols() != b.static_x.cols()) {
    return false;
  }
  for (std::size_t r = 0; r < a.static_x.rows(); ++r) {
    for (std::size_t c = 0; c < a.static_x.cols(); ++c) {
      if (std::bit_cast<std::uint64_t>(a.static_x.at(r, c)) !=
          std::bit_cast<std::uint64_t>(b.static_x.at(r, c))) {
        return false;
      }
    }
  }
  if (a.num_steps() != b.num_steps()) return false;
  for (std::size_t s = 0; s < a.num_steps(); ++s) {
    const Matrix& ma = a.dynamic.slice(s);
    const Matrix& mb = b.dynamic.slice(s);
    if (ma.rows() != mb.rows() || ma.cols() != mb.cols()) return false;
    for (std::size_t r = 0; r < ma.rows(); ++r) {
      for (std::size_t c = 0; c < ma.cols(); ++c) {
        if (std::bit_cast<std::uint64_t>(ma.at(r, c)) !=
            std::bit_cast<std::uint64_t>(mb.at(r, c))) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(FingerprintTest, IdenticalContentFingerprintsIdentically) {
  const Dataset a = SmallData();
  const Dataset b = SmallData();  // same seed, distinct addresses
  EXPECT_EQ(ComputeDatasetFingerprint(a), ComputeDatasetFingerprint(b));
  EXPECT_EQ(DatasetFingerprint(a), DatasetFingerprint(b));
}

TEST(FingerprintTest, OneMutatedRccRowChangesFingerprint) {
  const Dataset base = SmallData();
  Dataset mutated = SmallData();
  const std::uint64_t before = ComputeDatasetFingerprint(base);
  Rcc& row = const_cast<Rcc&>(mutated.rccs.rows().front());
  row.settled_amount += 1.0;
  EXPECT_NE(ComputeDatasetFingerprint(mutated), before);
  row.settled_amount -= 1.0;
  EXPECT_EQ(ComputeDatasetFingerprint(mutated), before);
}

TEST(FingerprintTest, IdAndGridDigestsAreOrderSensitive) {
  EXPECT_NE(DigestIds({1, 2, 3}), DigestIds({3, 2, 1}));
  EXPECT_NE(DigestIds({1, 2}), DigestIds({1, 2, 3}));
  EXPECT_NE(DigestGrid({0.0, 50.0}), DigestGrid({50.0, 0.0}));
  EXPECT_EQ(DigestGrid({0.0, 50.0, 100.0}), DigestGrid({0.0, 50.0, 100.0}));
}

TEST(ViewCacheTest, HitReturnsTheSameSnapshot) {
  const Dataset data = SmallData();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(64ull << 20, /*num_shards=*/1);
  const auto first = BuildModelingViewShared(data, engineer, ids, grid, {},
                                             cache.max_bytes(), &cache);
  const auto second = BuildModelingViewShared(data, engineer, ids, grid, {},
                                              cache.max_bytes(), &cache);
  EXPECT_EQ(first.get(), second.get());  // one physical snapshot
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ViewCacheTest, BenchScaleTrainViewFitsTheDefaultShardBudget) {
  // The HPT benches' train view (ModelingConfig(42), x = 10% grid) must
  // fit one shard of the default 256 MB / 8-shard cache, or every trial
  // re-engineers it.
  const Dataset data = GenerateDataset(ModelingConfig(42));
  Rng rng(43);
  const auto split = MakeSplit(data.avails, SplitOptions{}, &rng);
  ASSERT_TRUE(split.ok()) << split.status();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(10.0);

  ViewCache cache(kDefaultViewCacheBytes);
  const auto first = BuildModelingViewShared(
      data, engineer, split->train, grid, {}, cache.max_bytes(), &cache);
  EXPECT_LE(ApproxModelingViewBytes(*first), kDefaultViewCacheBytes / 8);
  const auto second = BuildModelingViewShared(
      data, engineer, split->train, grid, {}, cache.max_bytes(), &cache);
  EXPECT_EQ(first.get(), second.get());
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ViewCacheTest, CachedViewBitIdenticalToDirectBuild) {
  const Dataset data = SmallData();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(64ull << 20, 1);
  const auto cached = BuildModelingViewShared(data, engineer, ids, grid, {},
                                              cache.max_bytes(), &cache);
  const ModelingView direct = BuildModelingView(data, engineer, ids, grid);
  EXPECT_TRUE(ViewsBitIdentical(*cached, direct));
}

TEST(ViewCacheTest, ZeroBudgetBypassesStorageButStaysCorrect) {
  const Dataset data = SmallData();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(0, 1);
  const auto first =
      BuildModelingViewShared(data, engineer, ids, grid, {}, 0, &cache);
  const auto second =
      BuildModelingViewShared(data, engineer, ids, grid, {}, 0, &cache);
  EXPECT_NE(first.get(), second.get());  // nothing retained
  EXPECT_TRUE(ViewsBitIdentical(*first, *second));
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ViewCacheTest, TinyBudgetEvictsLeastRecentlyUsed) {
  const Dataset data = SmallData();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  // Budget sized to hold roughly one view: inserting a second distinct key
  // must push out the least recently used entry (single shard => global
  // LRU order).
  ViewCache probe(1ull << 30, 1);
  const auto sized = BuildModelingViewShared(data, engineer, ids, grid, {},
                                             probe.max_bytes(), &probe);
  const std::size_t one_view = ApproxModelingViewBytes(*sized);

  ViewCache cache(one_view + one_view / 2, 1);
  const std::vector<std::int64_t> half(ids.begin(),
                                       ids.begin() + ids.size() / 2);
  const auto full_key = MakeViewCacheKey(data, ids, grid);
  const auto half_key = MakeViewCacheKey(data, half, grid);
  ASSERT_FALSE(full_key == half_key);

  BuildModelingViewShared(data, engineer, ids, grid, {}, cache.max_bytes(),
                          &cache);
  BuildModelingViewShared(data, engineer, half, grid, {}, cache.max_bytes(),
                          &cache);

  EXPECT_GE(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(full_key), nullptr);   // LRU tail was evicted
  EXPECT_NE(cache.Lookup(half_key), nullptr);   // newest entry survives
}

TEST(ViewCacheTest, ShrinkingBudgetEvictsImmediately) {
  const Dataset data = SmallData();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(1ull << 30, 1);
  const auto view = BuildModelingViewShared(data, engineer, ids, grid, {},
                                            cache.max_bytes(), &cache);
  ASSERT_EQ(cache.Stats().entries, 1u);

  cache.SetMaxBytes(1);  // below any real view's footprint
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  // The caller's snapshot outlives eviction.
  EXPECT_EQ(view->avail_ids.size(), ids.size());
}

TEST(ViewCacheTest, ClearAndResetCountersIsolateRuns) {
  const Dataset data = SmallData();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);

  ViewCache cache(64ull << 20, 1);
  BuildModelingViewShared(data, engineer, ids, grid, {}, cache.max_bytes(),
                          &cache);
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  cache.ResetCounters();
  const ViewCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions, 0u);
}

// Exercised under TSan in CI: concurrent misses on one key must converge
// on a single stored snapshot without data races, and concurrent distinct
// keys must not corrupt shard state.
TEST(ViewCacheConcurrencyTest, ConcurrentGetOrBuildConverges) {
  const Dataset data = SmallData();
  const FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const std::vector<std::int64_t> ids = AllIds(data);
  const std::vector<std::int64_t> half(ids.begin(),
                                       ids.begin() + ids.size() / 2);

  ViewCache cache(256ull << 20, 4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ModelingView>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::vector<std::int64_t>& pick = (t % 2 == 0) ? ids : half;
        for (int round = 0; round < 4; ++round) {
          seen[static_cast<std::size_t>(t)] = BuildModelingViewShared(
              data, engineer, pick, grid, {}, cache.max_bytes(), &cache);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  // After the dust settles every thread on the same key holds the stored
  // snapshot for that key.
  const auto full_entry = cache.Lookup(MakeViewCacheKey(data, ids, grid));
  const auto half_entry = cache.Lookup(MakeViewCacheKey(data, half, grid));
  ASSERT_NE(full_entry, nullptr);
  ASSERT_NE(half_entry, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)],
              (t % 2 == 0) ? full_entry : half_entry);
  }
  EXPECT_EQ(cache.Stats().entries, 2u);
}

}  // namespace
}  // namespace domd
