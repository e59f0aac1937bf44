// Randomized interleaved insert/erase/query fuzzing across every backend x
// several seeds (TEST_P sweep): after every mutation batch, all four
// retrieval sets must match a brute-force oracle. A second sweep hammers a
// frozen index from 8 concurrent reader threads against single-threaded
// answers (the concurrency convention: indexes are shared-immutable after
// build, so concurrent reads must be safe and exact).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "index/logical_time_index.h"

namespace domd {
namespace {

class IndexFuzzTest
    : public ::testing::TestWithParam<std::tuple<IndexBackend, int>> {};

TEST_P(IndexFuzzTest, InterleavedMutationsMatchOracle) {
  const auto [backend, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  auto index = MakeLogicalTimeIndex(backend);
  index->Build({});

  std::map<std::int64_t, IndexEntry> live;
  std::int64_t next_id = 1;

  for (int batch = 0; batch < 20; ++batch) {
    // Mutate: mostly inserts early, erases later.
    const int mutations = 25;
    for (int m = 0; m < mutations; ++m) {
      const bool erase = !live.empty() && rng.Bernoulli(batch < 10 ? 0.2 : 0.6);
      if (erase) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.UniformInt(
                             0, static_cast<std::int64_t>(live.size()) - 1)));
        ASSERT_TRUE(index->Erase(it->second).ok());
        live.erase(it);
      } else {
        IndexEntry entry;
        entry.id = next_id++;
        entry.start = rng.Uniform(0, 100);
        entry.end = rng.Bernoulli(0.06)
                        ? IndexEntry::kOpenEnd
                        : entry.start + rng.Uniform(0, 50);
        index->Insert(entry);
        live[entry.id] = entry;
      }
    }
    ASSERT_EQ(index->size(), live.size());

    // Verify against the oracle at a random probe time.
    const double t = rng.Uniform(-10, 140);
    std::set<std::int64_t> oracle_active, oracle_settled, oracle_created;
    for (const auto& [id, entry] : live) {
      if (entry.start <= t && entry.end > t) oracle_active.insert(id);
      if (entry.end <= t) oracle_settled.insert(id);
      if (entry.start <= t) oracle_created.insert(id);
    }
    std::vector<std::int64_t> ids;
    index->Collect(RccStatusCategory::kActive, t, &ids);
    EXPECT_EQ(std::set<std::int64_t>(ids.begin(), ids.end()), oracle_active)
        << "batch " << batch << " t=" << t;
    index->Collect(RccStatusCategory::kSettled, t, &ids);
    EXPECT_EQ(std::set<std::int64_t>(ids.begin(), ids.end()), oracle_settled);
    index->Collect(RccStatusCategory::kCreated, t, &ids);
    EXPECT_EQ(std::set<std::int64_t>(ids.begin(), ids.end()), oracle_created);
    EXPECT_EQ(index->CountActive(t), oracle_active.size());
  }
}

/// Answers to all four retrieval queries at one probe time.
struct ProbeAnswer {
  std::set<std::int64_t> active;
  std::set<std::int64_t> settled;
  std::set<std::int64_t> created;
  std::size_t count_active = 0;
};

class ConcurrentReadFuzzTest : public ::testing::TestWithParam<IndexBackend> {
};

TEST_P(ConcurrentReadFuzzTest, EightReadersMatchSingleThreadedAnswers) {
  // Build a read-only index once, on the main thread.
  Rng rng(4242);
  std::vector<IndexEntry> entries;
  for (std::int64_t id = 1; id <= 400; ++id) {
    IndexEntry entry;
    entry.id = id;
    entry.start = rng.Uniform(0, 100);
    entry.end = rng.Bernoulli(0.06) ? IndexEntry::kOpenEnd
                                    : entry.start + rng.Uniform(0, 50);
    entries.push_back(entry);
  }
  auto index = MakeLogicalTimeIndex(GetParam());
  index->Build(entries);

  // Single-threaded reference answers for a fixed probe grid.
  std::vector<double> probes;
  for (int i = 0; i < 64; ++i) probes.push_back(rng.Uniform(-10, 160));
  std::vector<ProbeAnswer> expected(probes.size());
  for (std::size_t p = 0; p < probes.size(); ++p) {
    std::vector<std::int64_t> ids;
    index->Collect(RccStatusCategory::kActive, probes[p], &ids);
    expected[p].active.insert(ids.begin(), ids.end());
    index->Collect(RccStatusCategory::kSettled, probes[p], &ids);
    expected[p].settled.insert(ids.begin(), ids.end());
    index->Collect(RccStatusCategory::kCreated, probes[p], &ids);
    expected[p].created.insert(ids.begin(), ids.end());
    expected[p].count_active = index->CountActive(probes[p]);
  }

  // 8 readers hammer the shared index in random probe orders; each records
  // its first mismatch and the main thread asserts afterwards.
  constexpr int kReaders = 8;
  constexpr int kQueriesPerReader = 2000;
  std::vector<std::string> mismatch(kReaders);
  std::vector<std::thread> readers;
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.emplace_back([&, reader] {
      Rng local = Rng::ForStream(99, static_cast<std::uint64_t>(reader));
      std::vector<std::int64_t> ids;
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const auto p = static_cast<std::size_t>(local.UniformInt(
            0, static_cast<std::int64_t>(probes.size()) - 1));
        const double t = probes[p];
        index->Collect(RccStatusCategory::kActive, t, &ids);
        if (std::set<std::int64_t>(ids.begin(), ids.end()) !=
            expected[p].active) {
          mismatch[reader] = "CollectActive mismatch at t=" +
                             std::to_string(t);
          return;
        }
        index->Collect(RccStatusCategory::kSettled, t, &ids);
        if (std::set<std::int64_t>(ids.begin(), ids.end()) !=
            expected[p].settled) {
          mismatch[reader] = "CollectSettled mismatch at t=" +
                             std::to_string(t);
          return;
        }
        index->Collect(RccStatusCategory::kCreated, t, &ids);
        if (std::set<std::int64_t>(ids.begin(), ids.end()) !=
            expected[p].created) {
          mismatch[reader] = "CollectCreated mismatch at t=" +
                             std::to_string(t);
          return;
        }
        if (index->CountActive(t) != expected[p].count_active) {
          mismatch[reader] = "CountActive mismatch at t=" + std::to_string(t);
          return;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int reader = 0; reader < kReaders; ++reader) {
    EXPECT_TRUE(mismatch[reader].empty())
        << "reader " << reader << ": " << mismatch[reader];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConcurrentReadFuzzTest,
    ::testing::Values(IndexBackend::kIntervalTree, IndexBackend::kAvlTree,
                      IndexBackend::kNaiveJoin),
    [](const ::testing::TestParamInfo<IndexBackend>& info) {
      return std::string(IndexBackendToString(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    BackendsBySeeds, IndexFuzzTest,
    ::testing::Combine(::testing::Values(IndexBackend::kIntervalTree,
                                         IndexBackend::kAvlTree,
                                         IndexBackend::kNaiveJoin),
                       ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<std::tuple<IndexBackend, int>>& info) {
      return std::string(IndexBackendToString(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace domd
