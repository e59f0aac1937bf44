// The store epoch is a running digest (DESIGN.md §14): every append,
// replicated apply, replay, merge and snapshot install updates it in
// O(batch) instead of re-fingerprinting. These tests pin the invariant
// that makes that safe — after every operation, epoch() equals the epoch
// Snapshot() stamps, which equals ComputeDatasetFingerprint of the content
// the snapshot exposes — over a seeded random interleaving of every
// operation that moves it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cache/fingerprint.h"
#include "common/rng.h"
#include "ingest/data_store.h"
#include "ingest/ingest_log.h"
#include "synth/generator.h"

namespace domd {
namespace {

constexpr std::uint64_t kSeed = 20250518;
constexpr int kOps = 400;

/// Epoch of `store` after checking that its three spellings agree.
std::uint64_t CheckedEpoch(const DataStore& store, const std::string& where) {
  const auto snapshot = store.Snapshot();
  const std::uint64_t epoch = store.epoch();
  EXPECT_EQ(epoch, snapshot->epoch()) << where;
  EXPECT_EQ(epoch, ComputeDatasetFingerprint(snapshot->data())) << where;
  EXPECT_EQ(epoch, store.counters().epoch) << where;
  return epoch;
}

/// A fleet whose every value survives the CSV tables' %.6g round trip, so
/// a persisting merge followed by a reopen keeps the content — and the
/// epoch — bit for bit.
Dataset CsvStableFleet(const std::string& dir) {
  SynthConfig config;
  config.num_avails = 8;
  config.mean_rccs_per_avail = 20.0;
  config.seed = 5;
  const Dataset fleet = GenerateDataset(config);
  EXPECT_TRUE(fleet.avails.WriteFile(dir + "/avails.csv").ok());
  EXPECT_TRUE(fleet.rccs.WriteFile(dir + "/rccs.csv").ok());
  Dataset stable;
  stable.avails = *AvailTable::ReadFile(dir + "/avails.csv");
  stable.rccs = *RccTable::ReadFile(dir + "/rccs.csv");
  return stable;
}

/// Drives the op stream. Row values are copies of fleet rows with a fresh
/// id, avail or CSV-stable amount, so every mutation validates.
class EpochModel {
 public:
  explicit EpochModel(const std::string& dir)
      : dir_(dir), fleet_(CsvStableFleet(dir)), rng_(kSeed) {
    for (const Avail& avail : fleet_.avails.rows()) {
      avail_ids_.push_back(avail.id);
      next_avail_id_ = std::max(next_avail_id_, avail.id + 1);
    }
    for (const Rcc& rcc : fleet_.rccs.rows()) {
      next_rcc_id_ = std::max(next_rcc_id_, rcc.id + 1);
    }
  }

  const Dataset& fleet() const { return fleet_; }

  /// Opens the store over dir's CSVs and log: `persist` selects OpenDir
  /// (merges rewrite the CSVs and rotate the log) or a bare log with no
  /// persist_dir (merges stay in memory; the tail keeps mirroring the
  /// un-rotated log).
  std::unique_ptr<DataStore> OpenPrimary(bool persist) {
    persist_ = persist;
    StatusOr<std::unique_ptr<DataStore>> store =
        Status::Internal("not opened");
    if (persist) {
      store = DataStore::OpenDir(dir_);
    } else {
      Dataset base;
      base.avails = *AvailTable::ReadFile(dir_ + "/avails.csv");
      base.rccs = *RccTable::ReadFile(dir_ + "/rccs.csv");
      DataStoreOptions options;
      options.log_path = dir_ + "/ingest.log";
      store = DataStore::Open(std::move(base), options);
    }
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(*store) : nullptr;
  }

  bool persist() const { return persist_; }

  IngestMutation NewAvail() {
    Avail avail = PickAvail();
    avail.id = next_avail_id_++;
    avail_ids_.push_back(avail.id);
    return MakeAvailUpsert(std::move(avail));
  }

  IngestMutation NewRcc() {
    Rcc rcc = PickRcc();
    rcc.id = next_rcc_id_++;
    rcc.avail_id = avail_ids_[Index(avail_ids_.size())];
    touched_rccs_.push_back(rcc);
    return MakeRccUpsert(std::move(rcc));
  }

  /// Amends a row of the original fleet (its base position).
  IngestMutation AmendBaseRow() {
    if (rng_.Bernoulli(0.3)) {
      Avail avail = PickAvail();
      avail.crew_size = static_cast<int>(rng_.UniformInt(50, 400));
      return MakeAvailUpsert(std::move(avail));
    }
    Rcc rcc = PickRcc();
    rcc.settled_amount = Amount();
    touched_rccs_.push_back(rcc);
    return MakeRccUpsert(std::move(rcc));
  }

  /// Amends a row this stream already upserted (pending or merged).
  IngestMutation AmendTouchedRow() {
    if (touched_rccs_.empty()) return NewRcc();
    Rcc rcc = touched_rccs_[Index(touched_rccs_.size())];
    rcc.settled_amount = Amount();
    if (rng_.Bernoulli(0.3)) {
      rcc.avail_id = avail_ids_[Index(avail_ids_.size())];
    }
    touched_rccs_.push_back(rcc);
    return MakeRccUpsert(std::move(rcc));
  }

  IngestMutation RandomMutation() {
    switch (rng_.UniformInt(0, 3)) {
      case 0:
        return NewAvail();
      case 1:
        return NewRcc();
      case 2:
        return AmendBaseRow();
      default:
        return AmendTouchedRow();
    }
  }

  /// An InstallSnapshot may roll the primary back to a follower's older
  /// state, forgetting avails it had appended since.
  void ForgetAvailsNotIn(const Dataset& data) {
    std::erase_if(avail_ids_, [&](std::int64_t id) {
      return !data.avails.Find(id).ok();
    });
    std::erase_if(touched_rccs_, [&](const Rcc& rcc) {
      return !data.avails.Find(rcc.avail_id).ok();
    });
  }

  Rng& rng() { return rng_; }

 private:
  std::size_t Index(std::size_t size) {
    return static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(size) - 1));
  }
  Avail PickAvail() { return fleet_.avails.rows()[Index(fleet_.avails.size())]; }
  Rcc PickRcc() { return fleet_.rccs.rows()[Index(fleet_.rccs.size())]; }
  double Amount() {
    // Quarters below 10,000: exact in binary and in six significant digits.
    return static_cast<double>(rng_.UniformInt(0, 39999)) * 0.25;
  }

  std::string dir_;
  Dataset fleet_;
  Rng rng_;
  std::vector<std::int64_t> avail_ids_;
  std::vector<Rcc> touched_rccs_;
  std::int64_t next_avail_id_ = 1;
  std::int64_t next_rcc_id_ = 1;
  bool persist_ = true;
};

/// Brings `follower` to the primary's position through the replication
/// protocol: sequenced tail records, or a snapshot install when the
/// primary compacted past the follower's position (counted in
/// `*installs`).
void CatchUp(DataStore* primary, DataStore* follower, int* installs) {
  for (;;) {
    std::uint64_t have_seq = 0;
    std::uint64_t have_chain = 0;
    follower->Position(&have_seq, &have_chain);
    auto tail = primary->TailFrom(have_seq + 1, &have_chain, 16);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    std::vector<IngestMutation> decoded;
    for (const std::string& payload :
         tail->snapshot ? tail->rows : tail->records) {
      auto mutation = DecodeMutation(payload);
      ASSERT_TRUE(mutation.ok());
      decoded.push_back(std::move(*mutation));
    }
    if (tail->snapshot) {
      ASSERT_TRUE(
          follower->InstallSnapshot(decoded, tail->last_seq, tail->chain).ok());
      CheckedEpoch(*follower, "follower install");
      ++*installs;
      return;
    }
    ASSERT_TRUE(follower->ApplyReplicated(tail->first_seq, decoded).ok());
    CheckedEpoch(*follower, "follower apply");
    if (!tail->more) return;
  }
}

TEST(DataStoreEpochPropertyTest, RunningEpochIsContentFingerprintAfterEveryOp) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("domd_epoch_property_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EpochModel model(dir);
  std::unique_ptr<DataStore> primary = model.OpenPrimary(/*persist=*/true);
  ASSERT_NE(primary, nullptr);
  auto follower_or = DataStore::Open(model.fleet());
  ASSERT_TRUE(follower_or.ok());
  std::unique_ptr<DataStore> follower = std::move(*follower_or);
  CheckedEpoch(*primary, "open");

  int merges[2] = {0, 0};  // [un-rotated, rotated]
  int installs = 0;
  int follower_installs = 0;
  int reopens[2] = {0, 0};
  for (int op = 0; op < kOps; ++op) {
    const std::string where = "op " + std::to_string(op);
    const std::int64_t kind = model.rng().UniformInt(0, 19);
    if (kind < 13) {
      // A batch of 1-4 upserts; an id may repeat inside one batch.
      std::vector<IngestMutation> batch;
      const std::int64_t size = model.rng().UniformInt(1, 4);
      for (std::int64_t i = 0; i < size; ++i) {
        batch.push_back(model.RandomMutation());
      }
      std::uint64_t last_seq = 0;
      std::uint64_t acked_epoch = 0;
      ASSERT_TRUE(primary->AppendBatch(batch, &last_seq, &acked_epoch).ok())
          << where;
      EXPECT_EQ(last_seq, primary->last_seq()) << where;
      EXPECT_EQ(acked_epoch, CheckedEpoch(*primary, where)) << where;
      continue;
    }
    if (kind < 15) {
      const std::uint64_t before = CheckedEpoch(*primary, where);
      auto merged = primary->Merge();
      ASSERT_TRUE(merged.ok()) << where << merged.status().ToString();
      // A merge changes the representation, never the content.
      EXPECT_EQ(merged->new_epoch, before) << where;
      EXPECT_EQ(primary->pending_mutations(), 0u) << where;
      ++merges[model.persist()];
    } else if (kind < 17) {
      CatchUp(primary.get(), follower.get(), &follower_installs);
      // Same position, same history: same content, same epoch.
      EXPECT_EQ(follower->last_seq(), primary->last_seq()) << where;
      EXPECT_EQ(CheckedEpoch(*follower, where), CheckedEpoch(*primary, where))
          << where;
    } else if (kind < 18) {
      if (!model.persist()) continue;  // an install needs a persist_dir.
      // Failover reconciliation: the primary adopts the follower's state
      // wholesale (possibly older than its own).
      auto exported = follower->TailFrom(0, nullptr, 0);
      ASSERT_TRUE(exported.ok());
      std::vector<IngestMutation> rows;
      for (const std::string& payload : exported->rows) {
        rows.push_back(*DecodeMutation(payload));
      }
      ASSERT_TRUE(primary
                      ->InstallSnapshot(rows, exported->last_seq,
                                        exported->chain)
                      .ok())
          << where;
      EXPECT_EQ(CheckedEpoch(*primary, where), follower->epoch()) << where;
      model.ForgetAvailsNotIn(primary->Snapshot()->data());
      ++installs;
    } else {
      // Close, then reopen over the same files (replaying the log) in
      // either persistence mode: restart is invisible to the epoch.
      const std::uint64_t before = CheckedEpoch(*primary, where);
      primary.reset();
      primary = model.OpenPrimary(model.rng().Bernoulli(0.5));
      ASSERT_NE(primary, nullptr) << where;
      EXPECT_EQ(CheckedEpoch(*primary, where), before) << where;
      ++reopens[model.persist()];
    }
    CheckedEpoch(*primary, where);
  }
  // The stream exercised every operation, in both persistence modes.
  EXPECT_GT(merges[0], 0);
  EXPECT_GT(merges[1], 0);
  EXPECT_GT(installs, 0);
  EXPECT_GT(follower_installs, 0);
  EXPECT_GT(reopens[0], 0);
  EXPECT_GT(reopens[1], 0);
  CatchUp(primary.get(), follower.get(), &follower_installs);
  EXPECT_EQ(follower->epoch(), primary->epoch());
  primary.reset();
  std::filesystem::remove_all(dir);
}

TEST(DataStoreEpochTest, EmptyDatasetEpochIsItsFingerprint) {
  auto store = DataStore::Open(Dataset{});
  ASSERT_TRUE(store.ok());
  const std::uint64_t empty = CheckedEpoch(**store, "empty");
  EXPECT_EQ(empty, ComputeDatasetFingerprint(Dataset{}));
  EXPECT_EQ(empty, DatasetDigest{}.Finish());
}

TEST(DataStoreEpochTest, SwappingTwoRowsContentsChangesTheEpoch) {
  // Position keys the row hash: the same multiset of rows in another
  // order is other content.
  SynthConfig config;
  config.num_avails = 4;
  config.mean_rccs_per_avail = 10.0;
  const Dataset fleet = GenerateDataset(config);
  ASSERT_GE(fleet.rccs.size(), 2u);
  auto store = DataStore::Open(fleet);
  ASSERT_TRUE(store.ok());
  const std::uint64_t before = CheckedEpoch(**store, "before");

  Rcc first = fleet.rccs.rows()[0];
  Rcc second = fleet.rccs.rows()[1];
  std::swap(first.id, second.id);  // ids stay put; everything else swaps.
  ASSERT_TRUE((*store)->AppendBatch({MakeRccUpsert(first),
                                     MakeRccUpsert(second)})
                  .ok());
  EXPECT_NE(CheckedEpoch(**store, "swapped"), before);
}

TEST(DataStoreEpochTest, AmendingARowThenRestoringItRestoresTheEpoch) {
  SynthConfig config;
  config.num_avails = 4;
  config.mean_rccs_per_avail = 10.0;
  const Dataset fleet = GenerateDataset(config);
  auto store = DataStore::Open(fleet);
  ASSERT_TRUE(store.ok());
  const std::uint64_t before = CheckedEpoch(**store, "before");

  const Rcc original = fleet.rccs.rows()[fleet.rccs.size() / 2];
  Rcc amended = original;
  amended.settled_amount += 1000.0;
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(amended)).ok());
  EXPECT_NE(CheckedEpoch(**store, "amended"), before);
  ASSERT_TRUE((*store)->Append(MakeRccUpsert(original)).ok());
  EXPECT_EQ(CheckedEpoch(**store, "restored"), before);
  // The key is still pending (it was written twice), but the content is
  // the base's again.
  EXPECT_EQ((*store)->pending_mutations(), 1u);
}

TEST(DataStoreEpochTest, ReplayedRecordItsTableRejectsIsSkippedByTheEpoch) {
  // IngestLog checks framing and checksums, not row validity, so a log
  // written by any IngestLog user can hold a row its table rejects.
  // Materialize skips such a record; the running digest must skip it too.
  SynthConfig config;
  config.num_avails = 4;
  config.mean_rccs_per_avail = 10.0;
  const Dataset fleet = GenerateDataset(config);
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("domd_epoch_invalid_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::filesystem::remove(log_path);
  Rcc invalid = fleet.rccs.rows().front();
  invalid.settled_amount = -1.0;
  Rcc valid = fleet.rccs.rows().back();
  valid.settled_amount += 10.0;
  {
    IngestLog::ReplayResult replay;
    auto log = IngestLog::Open(log_path, &replay);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(
        (*log)->AppendBatch({MakeRccUpsert(invalid), MakeRccUpsert(valid)})
            .ok());
  }
  DataStoreOptions options;
  options.log_path = log_path;
  auto store = DataStore::Open(fleet, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->stats().replayed, 2u);
  EXPECT_EQ((*store)->pending_mutations(), 1u);  // only the valid row.
  CheckedEpoch(**store, "replayed");
  EXPECT_EQ((*store)->Snapshot()->data().rccs.Find(invalid.id).value()
                ->settled_amount,
            fleet.rccs.rows().front().settled_amount);
  store->reset();
  std::filesystem::remove(log_path);
}

}  // namespace
}  // namespace domd
