#include "ingest/data_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/fingerprint.h"
#include "fault/fault.h"
#include "synth/generator.h"

namespace domd {
namespace {

using fault::ScopedFaultInjection;

Dataset SmallFleet(std::uint64_t seed = 11) {
  SynthConfig config;
  config.num_avails = 10;
  config.mean_rccs_per_avail = 25.0;
  config.seed = seed;
  return GenerateDataset(config);
}

std::int64_t MaxAvailId(const Dataset& data) {
  std::int64_t max_id = 0;
  for (const Avail& avail : data.avails.rows()) {
    if (avail.id > max_id) max_id = avail.id;
  }
  return max_id;
}

std::int64_t MaxRccId(const Dataset& data) {
  std::int64_t max_id = 0;
  for (const Rcc& rcc : data.rccs.rows()) {
    if (rcc.id > max_id) max_id = rcc.id;
  }
  return max_id;
}

Avail NewAvail(std::int64_t id) {
  Avail avail;
  avail.id = id;
  avail.ship_id = 900 + id;
  avail.status = AvailStatus::kClosed;
  avail.planned_start = *Date::Parse("2021-03-01");
  avail.planned_end = *Date::Parse("2021-09-01");
  avail.actual_start = *Date::Parse("2021-03-02");
  avail.actual_end = *Date::Parse("2021-10-15");
  avail.ship_class = 1;
  avail.rmc_id = 2;
  avail.ship_age_years = 12.5;
  avail.avail_type = 1;
  avail.homeport = 2;
  avail.prior_avail_count = 3;
  avail.contract_value_musd = 42.75;
  avail.crew_size = 250;
  return avail;
}

Rcc NewRcc(std::int64_t id, std::int64_t avail_id) {
  Rcc rcc;
  rcc.id = id;
  rcc.avail_id = avail_id;
  rcc.type = RccType::kNewWork;
  rcc.swlin = *Swlin::Parse("434-11-001");
  rcc.creation_date = *Date::Parse("2021-04-01");
  rcc.settled_date = *Date::Parse("2021-06-15");
  // CSV-stable: <= 6 significant digits and binary-exact, so a persisting
  // merge's %.6g rewrite round-trips and the epoch survives reopen.
  rcc.settled_amount = 1357.25;
  return rcc;
}

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("domd_data_store_test_" + name + "_" +
                std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(DataStoreTest, AppendIsVisibleInNewSnapshotOnly) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto before = (*store)->Snapshot();
  const std::size_t base_rccs = before->data().rccs.size();
  const std::uint64_t base_epoch = before->epoch();

  const std::int64_t rcc_id = MaxRccId(before->data()) + 1;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(NewRcc(rcc_id, 1))).ok());

  const auto after = (*store)->Snapshot();
  EXPECT_EQ(before->data().rccs.size(), base_rccs);   // pinned cut intact.
  EXPECT_EQ(before->epoch(), base_epoch);
  EXPECT_EQ(after->data().rccs.size(), base_rccs + 1);
  EXPECT_NE(after->epoch(), base_epoch);
  EXPECT_EQ(after->delta_depth(), 1u);
  EXPECT_TRUE(after->data().rccs.Find(rcc_id).ok());
  EXPECT_FALSE(before->data().rccs.Find(rcc_id).ok());
}

TEST(DataStoreTest, SnapshotIsCachedWhileClean) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto a = (*store)->Snapshot();
  const auto b = (*store)->Snapshot();
  EXPECT_EQ(a.get(), b.get());

  ASSERT_TRUE(
      (*store)->Append(MakeAvailUpsert(NewAvail(MaxAvailId(a->data()) + 1)))
          .ok());
  const auto c = (*store)->Snapshot();
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(c.get(), (*store)->Snapshot().get());
}

TEST(DataStoreTest, RejectsRccForUnknownAvail) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto snapshot = (*store)->Snapshot();
  const std::int64_t ghost_avail = MaxAvailId(snapshot->data()) + 100;
  const Status status = (*store)->Append(
      MakeRccUpsert(NewRcc(MaxRccId(snapshot->data()) + 1, ghost_avail)));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  EXPECT_EQ((*store)->Snapshot().get(), snapshot.get());
}

TEST(DataStoreTest, AppendBatchIntroducingAvailWithItsRccs) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto snapshot = (*store)->Snapshot();
  const std::int64_t avail_id = MaxAvailId(snapshot->data()) + 1;
  const std::int64_t rcc_id = MaxRccId(snapshot->data()) + 1;
  // The avail and an RCC pointing at it ride one batch: validation must
  // see the in-batch avail, not just the base.
  std::vector<IngestMutation> batch;
  batch.push_back(MakeAvailUpsert(NewAvail(avail_id)));
  batch.push_back(MakeRccUpsert(NewRcc(rcc_id, avail_id)));
  ASSERT_TRUE((*store)->AppendBatch(batch).ok());
  const auto after = (*store)->Snapshot();
  EXPECT_TRUE(after->data().avails.Find(avail_id).ok());
  EXPECT_TRUE(after->data().rccs.Find(rcc_id).ok());
  EXPECT_EQ(after->delta_depth(), 2u);
}

TEST(DataStoreTest, MergePreservesEpochAndContent) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto base = (*store)->Snapshot();
  ASSERT_TRUE(
      (*store)->Append(MakeRccUpsert(NewRcc(MaxRccId(base->data()) + 1, 2)))
          .ok());
  const auto dirty = (*store)->Snapshot();
  ASSERT_EQ(dirty->delta_depth(), 1u);

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->merged_mutations, 1u);
  EXPECT_EQ(merged->old_epoch, base->epoch());

  const auto clean = (*store)->Snapshot();
  // The merge changed representation (base + tail -> base), not content,
  // so the epoch must not move: same rows => same fingerprint => same
  // epoch.
  EXPECT_EQ(clean->epoch(), dirty->epoch());
  EXPECT_EQ(merged->new_epoch, dirty->epoch());
  EXPECT_EQ(clean->delta_depth(), 0u);
  EXPECT_EQ((*store)->epoch(), clean->epoch());
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  EXPECT_EQ(clean->data().rccs.size(), dirty->data().rccs.size());

  // The pinned pre-merge snapshots still read their own cuts.
  EXPECT_EQ(base->data().rccs.size() + 1, clean->data().rccs.size());
}

TEST(DataStoreTest, DirtySnapshotCarriesPendingInserts) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto base = (*store)->Snapshot();
  std::int64_t next_id = MaxRccId(base->data()) + 1;

  // Inserts: a new open RCC and a new settled one.
  Rcc open = NewRcc(next_id++, 3);
  open.settled_date = std::nullopt;
  open.settled_amount = 0.0;
  const Rcc settled = NewRcc(next_id++, 5);
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(open)).ok());
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(settled)).ok());

  const auto snapshot = (*store)->Snapshot();
  ASSERT_EQ(snapshot->delta_depth(), 2u);
  EXPECT_EQ(snapshot->data().rccs.size(), base->data().rccs.size() + 2);
  const auto got_open = snapshot->data().rccs.Find(open.id);
  ASSERT_TRUE(got_open.ok());
  EXPECT_FALSE((*got_open)->settled_date.has_value());
  const auto got_settled = snapshot->data().rccs.Find(settled.id);
  ASSERT_TRUE(got_settled.ok());
  EXPECT_EQ((*got_settled)->settled_date, settled.settled_date);
  EXPECT_EQ(snapshot->epoch(), ComputeDatasetFingerprint(snapshot->data()));
}

TEST(DataStoreTest, AmendedRccReplacesItsBaseRow) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto before = (*store)->Snapshot();

  // Re-settle a base RCC: its interval and amount change in place.
  Rcc amended = before->data().rccs.rows()[before->data().rccs.size() / 2];
  const std::optional<Date> old_settled = amended.settled_date;
  amended.settled_date = amended.creation_date + 14;
  amended.settled_amount = 777.25;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(amended)).ok());

  const auto snapshot = (*store)->Snapshot();
  // An amend replaces, it does not add.
  EXPECT_EQ(snapshot->data().rccs.size(), before->data().rccs.size());
  const auto got = snapshot->data().rccs.Find(amended.id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->settled_date, amended.settled_date);
  EXPECT_EQ((*got)->settled_amount, 777.25);
  EXPECT_EQ((*before->data().rccs.Find(amended.id))->settled_date,
            old_settled);
  EXPECT_EQ(snapshot->epoch(), ComputeDatasetFingerprint(snapshot->data()));

  // After compaction the merged base holds the same content.
  ASSERT_TRUE((*store)->Merge().ok());
  const auto merged = (*store)->Snapshot();
  EXPECT_EQ(merged->delta_depth(), 0u);
  EXPECT_EQ(merged->epoch(), snapshot->epoch());
  EXPECT_EQ(merged->data().rccs.size(), before->data().rccs.size());
  EXPECT_EQ((*merged->data().rccs.Find(amended.id))->settled_amount, 777.25);
}

TEST(DataStoreTest, RepeatedUpsertCountsOnePendingKey) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const std::int64_t rcc_id = MaxRccId((*store)->Snapshot()->data()) + 1;
  Rcc rcc = NewRcc(rcc_id, 2);
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
  rcc.settled_amount = 2468.5;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(rcc)).ok());
  EXPECT_EQ((*store)->pending_mutations(), 1u);
  EXPECT_EQ((*store)->stats().last_seq, 2u);

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->merged_mutations, 1u);
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  const auto snapshot = (*store)->Snapshot();
  EXPECT_EQ((*snapshot->data().rccs.Find(rcc_id))->settled_amount, 2468.5);
}

TEST(DataStoreTest, AvailAppendedDuringMergeStaysVisible) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto base = (*store)->Snapshot();
  const std::int64_t avail_id = MaxAvailId(base->data()) + 1;
  const std::int64_t rcc_id = MaxRccId(base->data()) + 1;
  // Something to merge, so the merge reaches its commit point.
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(NewRcc(rcc_id, 1))).ok());

  // Hold the merge between its cut and its commit, then append an avail
  // inside that window: the avail is past the cut, so it must survive the
  // commit as pending and stay visible to referential validation.
  ScopedFaultInjection faults("ingest.merge.commit=latency-ms:300");
  const fault::FaultPoint& commit =
      fault::FaultRegistry::Default().GetPoint("ingest.merge.commit");
  StatusOr<MergeStats> merged = Status::Internal("merge never ran");
  std::thread merger([&] { merged = (*store)->Merge(); });
  while (commit.hits() == 0) std::this_thread::yield();
  ASSERT_TRUE((*store)->Append(MakeAvailUpsert(NewAvail(avail_id))).ok());
  merger.join();

  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->merged_mutations, 1u);  // the cut held only the RCC.
  EXPECT_EQ((*store)->pending_mutations(), 1u);
  // The commit re-applied the post-cut avail onto the cut's digest: the
  // running epoch still fingerprints the content.
  EXPECT_EQ((*store)->epoch(),
            ComputeDatasetFingerprint((*store)->Snapshot()->data()));
  EXPECT_TRUE(
      (*store)->Append(MakeRccUpsert(NewRcc(rcc_id + 1, avail_id))).ok());
  const auto snapshot = (*store)->Snapshot();
  EXPECT_TRUE(snapshot->data().avails.Find(avail_id).ok());
  EXPECT_TRUE(snapshot->data().rccs.Find(rcc_id + 1).ok());
  EXPECT_EQ((*store)->pending_mutations(), 2u);
  EXPECT_EQ(snapshot->epoch(), ComputeDatasetFingerprint(snapshot->data()));
  EXPECT_EQ((*store)->epoch(), snapshot->epoch());
}

TEST(DataStoreTest, MergeFaultLeavesStateIntactAndRetrySucceeds) {
  auto store = DataStore::Open(SmallFleet());
  ASSERT_TRUE(store.ok());
  const auto base = (*store)->Snapshot();
  ASSERT_TRUE(
      (*store)->Append(MakeRccUpsert(NewRcc(MaxRccId(base->data()) + 1, 3)))
          .ok());
  const auto dirty = (*store)->Snapshot();
  {
    ScopedFaultInjection faults("ingest.merge.commit=fail-nth:1");
    EXPECT_FALSE((*store)->Merge().ok());
  }
  EXPECT_EQ((*store)->pending_mutations(), 1u);
  EXPECT_EQ((*store)->stats().merge_failures, 1u);
  EXPECT_EQ((*store)->Snapshot()->epoch(), dirty->epoch());

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  EXPECT_EQ((*store)->Snapshot()->epoch(), dirty->epoch());
}

TEST(DataStoreTest, DurableDirSurvivesMergeAndReopen) {
  ScopedTempDir dir("durable");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(
      fleet.avails.WriteFile(dir.path() + "/avails.csv").ok());
  ASSERT_TRUE(fleet.rccs.WriteFile(dir.path() + "/rccs.csv").ok());

  std::uint64_t merged_epoch = 0;
  std::size_t merged_rccs = 0;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const auto snapshot = (*store)->Snapshot();
    ASSERT_TRUE((*store)
                    ->Append(MakeRccUpsert(
                        NewRcc(MaxRccId(snapshot->data()) + 1, 4)))
                    .ok());
    auto merged = (*store)->Merge();
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_TRUE(merged->persisted);
    merged_epoch = merged->new_epoch;
    merged_rccs = (*store)->Snapshot()->data().rccs.size();
    // The log was rotated down to its header by the persisting merge.
    EXPECT_EQ((*store)->pending_mutations(), 0u);
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().replayed, 0u);
  const auto snapshot = (*reopened)->Snapshot();
  EXPECT_EQ(snapshot->epoch(), merged_epoch);
  EXPECT_EQ(snapshot->data().rccs.size(), merged_rccs);
}

TEST(DataStoreTest, CrashedLogRotationLosesNothing) {
  // The merge commits (CSVs durable, in-memory state swapped) but the log
  // rotation dies after writing the replacement log, before renaming it
  // into place. The old log — still the only live copy — holds the merged
  // records; replaying them over the merged CSVs is an idempotent no-op,
  // so a reopened store lands on identical content and epoch. Acknowledged
  // data is never lost, which the pre-rename fault point makes the
  // worst-case check (a truncating rotation would fail it).
  ScopedTempDir dir("rotatecrash");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(fleet.avails.WriteFile(dir.path() + "/avails.csv").ok());
  ASSERT_TRUE(fleet.rccs.WriteFile(dir.path() + "/rccs.csv").ok());

  const std::int64_t rcc_id = MaxRccId(fleet) + 1;
  std::uint64_t merged_epoch = 0;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(MakeRccUpsert(NewRcc(rcc_id, 3))).ok());
    ScopedFaultInjection faults("ingest.log.rotate=fail-nth:1");
    EXPECT_FALSE((*store)->Merge().ok());
    // The merge itself committed; only the rotation failed.
    EXPECT_EQ((*store)->pending_mutations(), 0u);
    merged_epoch = (*store)->Snapshot()->epoch();
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The un-rotated log replays the already-merged record...
  EXPECT_EQ((*reopened)->stats().replayed, 1u);
  const auto snapshot = (*reopened)->Snapshot();
  // ...idempotently: identical content, identical epoch.
  EXPECT_TRUE(snapshot->data().rccs.Find(rcc_id).ok());
  EXPECT_EQ(snapshot->epoch(), merged_epoch);
}

TEST(DataStoreTest, CrashBeforeMergeReplaysTheLog) {
  ScopedTempDir dir("replay");
  const Dataset fleet = SmallFleet();
  ASSERT_TRUE(
      fleet.avails.WriteFile(dir.path() + "/avails.csv").ok());
  ASSERT_TRUE(fleet.rccs.WriteFile(dir.path() + "/rccs.csv").ok());

  std::uint64_t dirty_epoch = 0;
  const std::int64_t rcc_id = MaxRccId(fleet) + 1;
  {
    auto store = DataStore::OpenDir(dir.path());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append(MakeRccUpsert(NewRcc(rcc_id, 5))).ok());
    dirty_epoch = (*store)->Snapshot()->epoch();
    // Destroyed without Merge: the append lives only in the log.
  }
  auto reopened = DataStore::OpenDir(dir.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().replayed, 1u);
  EXPECT_EQ((*reopened)->pending_mutations(), 1u);
  const auto snapshot = (*reopened)->Snapshot();
  EXPECT_TRUE(snapshot->data().rccs.Find(rcc_id).ok());
  // Same base + same replayed mutation => identical content => identical
  // epoch: restart is invisible to fingerprint-keyed caches.
  EXPECT_EQ(snapshot->epoch(), dirty_epoch);
}

TEST(DataStoreTest, InPlaceAmendCannotServeStaleFingerprint) {
  // The ViewCache regression: the fingerprint memo probes {address, table
  // sizes, last ids}, all of which survive an in-place amend of a middle
  // row — and all of which a fresh dataset built at a recycled address
  // can match. A raw DatasetFingerprint would happily return the stale
  // memo; InvalidateFingerprint drops the entry, which is what the store
  // does for every dataset it publishes.
  Dataset data = SmallFleet();
  const std::uint64_t before = DatasetFingerprint(data);

  ASSERT_GE(data.rccs.size(), 3u);
  Rcc amended = data.rccs.rows()[data.rccs.size() / 2];
  amended.settled_amount += 5000.0;
  ASSERT_TRUE(data.rccs.Upsert(amended).ok());

  // The memoized path is fooled: same address, same sizes, same last ids.
  EXPECT_EQ(DatasetFingerprint(data), before);
  // After invalidation it is not.
  InvalidateFingerprint(data);
  const std::uint64_t epoch = DatasetFingerprint(data);
  EXPECT_NE(epoch, before);
  EXPECT_EQ(epoch, ComputeDatasetFingerprint(data));
  // And the recompute repaired the memo.
  EXPECT_EQ(DatasetFingerprint(data), epoch);
}

TEST(DataStoreConcurrencyTest, PinnedSnapshotsStableUnderWritersAndMerges) {
  DataStoreOptions options;
  options.merge_threshold = 8;  // keep the background merger busy.
  auto store = DataStore::Open(SmallFleet(), options);
  ASSERT_TRUE(store.ok());
  const auto pinned = (*store)->Snapshot();
  const std::uint64_t pinned_epoch = pinned->epoch();
  const std::size_t pinned_rccs = pinned->data().rccs.size();
  const std::int64_t first_new_id = MaxRccId(pinned->data()) + 1;

  constexpr int kWriters = 2;
  constexpr int kPerWriter = 40;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::int64_t id = first_new_id + w * kPerWriter + i;
        ASSERT_TRUE(
            (*store)->Append(MakeRccUpsert(NewRcc(id, 1 + (id % 5)))).ok());
      }
    });
  }
  threads.emplace_back([&] {
    while (!done.load()) {
      const auto snapshot = (*store)->Snapshot();
      // Every observed cut is internally consistent: its epoch is the
      // fingerprint of exactly the content it exposes.
      ASSERT_EQ(snapshot->epoch(),
                ComputeDatasetFingerprint(snapshot->data()));
      ASSERT_GE(snapshot->data().rccs.size(), pinned_rccs);
    }
  });
  threads.emplace_back([&] {
    while (!done.load()) {
      auto merged = (*store)->Merge();
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      std::this_thread::yield();
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  done.store(true);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  auto merged = (*store)->Merge();
  ASSERT_TRUE(merged.ok());
  const auto final_snapshot = (*store)->Snapshot();
  EXPECT_EQ(final_snapshot->data().rccs.size(),
            pinned_rccs + kWriters * kPerWriter);
  EXPECT_EQ((*store)->pending_mutations(), 0u);
  EXPECT_EQ(final_snapshot->epoch(),
            ComputeDatasetFingerprint(final_snapshot->data()));
  EXPECT_EQ((*store)->epoch(), final_snapshot->epoch());

  // The pin held through every concurrent append and merge.
  EXPECT_EQ(pinned->epoch(), pinned_epoch);
  EXPECT_EQ(pinned->data().rccs.size(), pinned_rccs);
  EXPECT_FALSE(pinned->data().rccs.Find(first_new_id).ok());
}

}  // namespace
}  // namespace domd
