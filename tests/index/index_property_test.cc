// Property tests run identically against all three index backends (TEST_P):
// every backend must agree with a brute-force oracle on the four retrieval
// sets of Eq. 3-6, under random workloads, duplicates, open intervals, and
// dynamic insert/erase sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "index/logical_time_index.h"

namespace domd {
namespace {

std::vector<IndexEntry> RandomEntries(std::size_t n, Rng* rng,
                                      double open_fraction = 0.05) {
  std::vector<IndexEntry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    IndexEntry e;
    e.id = static_cast<std::int64_t>(i) + 1;
    e.start = rng->Uniform(0.0, 100.0);
    e.end = rng->Bernoulli(open_fraction)
                ? IndexEntry::kOpenEnd
                : e.start + rng->Uniform(0.0, 60.0);
    entries.push_back(e);
  }
  return entries;
}

std::set<std::int64_t> OracleActive(const std::vector<IndexEntry>& entries,
                                    double t) {
  std::set<std::int64_t> out;
  for (const auto& e : entries) {
    if (e.start <= t && e.end > t) out.insert(e.id);
  }
  return out;
}

std::set<std::int64_t> OracleSettled(const std::vector<IndexEntry>& entries,
                                     double t) {
  std::set<std::int64_t> out;
  for (const auto& e : entries) {
    if (e.end <= t) out.insert(e.id);
  }
  return out;
}

std::set<std::int64_t> OracleCreated(const std::vector<IndexEntry>& entries,
                                     double t) {
  std::set<std::int64_t> out;
  for (const auto& e : entries) {
    if (e.start <= t) out.insert(e.id);
  }
  return out;
}

std::set<std::int64_t> AsSet(const std::vector<std::int64_t>& ids) {
  return std::set<std::int64_t>(ids.begin(), ids.end());
}

class IndexPropertyTest : public ::testing::TestWithParam<IndexBackend> {
 protected:
  std::unique_ptr<LogicalTimeIndex> MakeIndex() const {
    return MakeLogicalTimeIndex(GetParam());
  }
};

TEST_P(IndexPropertyTest, EmptyIndexReturnsNothing) {
  auto index = MakeIndex();
  index->Build({});
  std::vector<std::int64_t> ids;
  index->Collect(RccStatusCategory::kActive, 50.0, &ids);
  EXPECT_TRUE(ids.empty());
  index->Collect(RccStatusCategory::kSettled, 50.0, &ids);
  EXPECT_TRUE(ids.empty());
  index->Collect(RccStatusCategory::kCreated, 50.0, &ids);
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(index->size(), 0u);
}

TEST_P(IndexPropertyTest, MatchesOracleOnRandomWorkload) {
  Rng rng(2024);
  const auto entries = RandomEntries(500, &rng);
  auto index = MakeIndex();
  index->Build(entries);
  EXPECT_EQ(index->size(), entries.size());

  std::vector<std::int64_t> ids;
  for (double t : {-5.0, 0.0, 10.0, 33.3, 50.0, 77.7, 99.0, 100.0, 160.0}) {
    index->Collect(RccStatusCategory::kActive, t, &ids);
    EXPECT_EQ(AsSet(ids), OracleActive(entries, t)) << "active @ " << t;
    index->Collect(RccStatusCategory::kSettled, t, &ids);
    EXPECT_EQ(AsSet(ids), OracleSettled(entries, t)) << "settled @ " << t;
    index->Collect(RccStatusCategory::kCreated, t, &ids);
    EXPECT_EQ(AsSet(ids), OracleCreated(entries, t)) << "created @ " << t;
  }
}

TEST_P(IndexPropertyTest, CreatedIsUnionOfActiveAndSettled) {
  // Eq. 5: R^C = union(R^A, R^S) at every logical time.
  Rng rng(7);
  const auto entries = RandomEntries(300, &rng);
  auto index = MakeIndex();
  index->Build(entries);

  std::vector<std::int64_t> active, settled, created;
  for (double t : {5.0, 25.0, 60.0, 95.0}) {
    index->Collect(RccStatusCategory::kActive, t, &active);
    index->Collect(RccStatusCategory::kSettled, t, &settled);
    index->Collect(RccStatusCategory::kCreated, t, &created);
    std::set<std::int64_t> merged(active.begin(), active.end());
    merged.insert(settled.begin(), settled.end());
    EXPECT_EQ(AsSet(created), merged) << "union identity @ " << t;
    // Active and settled are disjoint.
    for (std::int64_t id : active) {
      EXPECT_EQ(std::count(settled.begin(), settled.end(), id), 0);
    }
  }
}

TEST_P(IndexPropertyTest, NotCreatedIsComplement) {
  // Eq. 6: R^N = R \ R^C.
  Rng rng(11);
  const auto entries = RandomEntries(200, &rng);
  auto index = MakeIndex();
  index->Build(entries);

  std::vector<std::int64_t> created, not_created;
  for (double t : {0.0, 40.0, 90.0}) {
    index->Collect(RccStatusCategory::kCreated, t, &created);
    index->Collect(RccStatusCategory::kNotCreated, t, &not_created);
    EXPECT_EQ(created.size() + not_created.size(), entries.size());
    std::set<std::int64_t> all(created.begin(), created.end());
    all.insert(not_created.begin(), not_created.end());
    EXPECT_EQ(all.size(), entries.size());
  }
}

TEST_P(IndexPropertyTest, CountsMatchCollects) {
  Rng rng(13);
  const auto entries = RandomEntries(250, &rng);
  auto index = MakeIndex();
  index->Build(entries);
  std::vector<std::int64_t> ids;
  for (double t : {10.0, 50.0, 90.0}) {
    index->Collect(RccStatusCategory::kActive, t, &ids);
    EXPECT_EQ(index->CountActive(t), ids.size());
    index->Collect(RccStatusCategory::kSettled, t, &ids);
    EXPECT_EQ(index->CountSettled(t), ids.size());
    index->Collect(RccStatusCategory::kCreated, t, &ids);
    EXPECT_EQ(index->CountCreated(t), ids.size());
  }
}

TEST_P(IndexPropertyTest, MonotonicityOverTime) {
  // Created and settled sets only grow with t*.
  Rng rng(17);
  const auto entries = RandomEntries(200, &rng);
  auto index = MakeIndex();
  index->Build(entries);
  std::size_t prev_created = 0, prev_settled = 0;
  for (double t = 0.0; t <= 160.0; t += 8.0) {
    const std::size_t created = index->CountCreated(t);
    const std::size_t settled = index->CountSettled(t);
    EXPECT_GE(created, prev_created);
    EXPECT_GE(settled, prev_settled);
    EXPECT_GE(created, settled);
    prev_created = created;
    prev_settled = settled;
  }
}

TEST_P(IndexPropertyTest, OpenIntervalsNeverSettle) {
  std::vector<IndexEntry> entries = {
      {10.0, IndexEntry::kOpenEnd, 1},
      {20.0, 50.0, 2},
  };
  auto index = MakeIndex();
  index->Build(entries);
  std::vector<std::int64_t> ids;
  index->Collect(RccStatusCategory::kSettled, 1e9, &ids);
  EXPECT_EQ(AsSet(ids), std::set<std::int64_t>{2});
  index->Collect(RccStatusCategory::kActive, 1e9, &ids);
  EXPECT_EQ(AsSet(ids), std::set<std::int64_t>{1});
}

TEST_P(IndexPropertyTest, BoundaryExactlyAtEndpoints) {
  // At t == start the entry is created & active; at t == end it has
  // settled (end-exclusive active interval).
  std::vector<IndexEntry> entries = {{10.0, 30.0, 1}};
  auto index = MakeIndex();
  index->Build(entries);
  EXPECT_EQ(index->CountCreated(10.0), 1u);
  EXPECT_EQ(index->CountActive(10.0), 1u);
  EXPECT_EQ(index->CountActive(29.999), 1u);
  EXPECT_EQ(index->CountActive(30.0), 0u);
  EXPECT_EQ(index->CountSettled(30.0), 1u);
  EXPECT_EQ(index->CountSettled(29.999), 0u);
  EXPECT_EQ(index->CountCreated(9.999), 0u);
}

TEST_P(IndexPropertyTest, DuplicateKeysAreAllRetrievable) {
  // Many entries sharing identical (start, end) must all be indexed.
  std::vector<IndexEntry> entries;
  for (int i = 0; i < 50; ++i) {
    entries.push_back({25.0, 75.0, i + 1});
  }
  auto index = MakeIndex();
  index->Build(entries);
  std::vector<std::int64_t> ids;
  index->Collect(RccStatusCategory::kActive, 50.0, &ids);
  EXPECT_EQ(ids.size(), 50u);
  EXPECT_EQ(AsSet(ids).size(), 50u);
}

TEST_P(IndexPropertyTest, DynamicInsertMatchesBulkBuild) {
  Rng rng(19);
  const auto entries = RandomEntries(150, &rng);
  auto bulk = MakeIndex();
  bulk->Build(entries);
  auto dynamic = MakeIndex();
  dynamic->Build({});
  for (const auto& e : entries) dynamic->Insert(e);

  std::vector<std::int64_t> a, b;
  for (double t : {15.0, 45.0, 85.0}) {
    bulk->Collect(RccStatusCategory::kActive, t, &a);
    dynamic->Collect(RccStatusCategory::kActive, t, &b);
    EXPECT_EQ(AsSet(a), AsSet(b));
    bulk->Collect(RccStatusCategory::kSettled, t, &a);
    dynamic->Collect(RccStatusCategory::kSettled, t, &b);
    EXPECT_EQ(AsSet(a), AsSet(b));
  }
}

TEST_P(IndexPropertyTest, EraseRemovesExactlyOneEntry) {
  Rng rng(23);
  auto entries = RandomEntries(100, &rng, /*open_fraction=*/0.0);
  auto index = MakeIndex();
  index->Build(entries);

  // Erase half the entries; the survivors must match the oracle.
  std::vector<IndexEntry> kept;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(index->Erase(entries[i]).ok());
    } else {
      kept.push_back(entries[i]);
    }
  }
  EXPECT_EQ(index->size(), kept.size());
  std::vector<std::int64_t> ids;
  for (double t : {20.0, 60.0}) {
    index->Collect(RccStatusCategory::kCreated, t, &ids);
    EXPECT_EQ(AsSet(ids), OracleCreated(kept, t));
  }
}

TEST_P(IndexPropertyTest, EraseMissingEntryFails) {
  auto index = MakeIndex();
  index->Build({{1.0, 2.0, 1}});
  EXPECT_EQ(index->Erase({5.0, 6.0, 99}).code(), StatusCode::kNotFound);
  EXPECT_EQ(index->size(), 1u);
}

TEST_P(IndexPropertyTest, RebuildReplacesContents) {
  auto index = MakeIndex();
  index->Build({{1.0, 2.0, 1}, {3.0, 4.0, 2}});
  index->Build({{10.0, 20.0, 3}});
  EXPECT_EQ(index->size(), 1u);
  std::vector<std::int64_t> ids;
  index->Collect(RccStatusCategory::kCreated, 100.0, &ids);
  EXPECT_EQ(AsSet(ids), std::set<std::int64_t>{3});
}

TEST_P(IndexPropertyTest, MemoryUsageGrowsWithSize) {
  Rng rng(29);
  auto small = MakeIndex();
  small->Build(RandomEntries(100, &rng));
  auto large = MakeIndex();
  large->Build(RandomEntries(1000, &rng));
  EXPECT_GT(large->MemoryUsageBytes(), small->MemoryUsageBytes());
  EXPECT_GT(small->MemoryUsageBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IndexPropertyTest,
    ::testing::Values(IndexBackend::kIntervalTree, IndexBackend::kAvlTree,
                      IndexBackend::kNaiveJoin),
    [](const ::testing::TestParamInfo<IndexBackend>& info) {
      return IndexBackendToString(info.param);
    });

}  // namespace
}  // namespace domd
