// Streaming-ingestion harness (DESIGN.md §14–15): measures the DataStore's
// durable append throughput, snapshot latency while the background
// compaction races the readers, the latency of reading the running epoch
// beside a writer, the cost of pinning a clean snapshot, the in-process
// halves of the replication protocol (quorum-acked append + cold-follower
// catch-up) — and checks the correctness contracts along the way (every
// sampled snapshot internally consistent, final epoch == content
// fingerprint, nothing pending after the last merge, replicas converged to
// the primary's exact (seq, chain) position). The contention stages run
// over a fixed ~100k-RCC base with a writer at a fixed offered rate, so
// their latencies do not depend on how fast the machine can write.
// Results land in BENCH_ingest.json.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cache/fingerprint.h"
#include "ingest/data_store.h"
#include "ingest/mutation.h"
#include "common/parallel.h"
#include "obs/stage.h"

namespace domd {
namespace {

constexpr std::size_t kSingleAppends = 400;    // one fsync each.
constexpr std::size_t kBatchSize = 256;        // one fsync per batch.
constexpr std::size_t kBatchedAppends = 8192;
constexpr std::size_t kPinSamples = 200000;
constexpr auto kContentionWindow = std::chrono::milliseconds(1500);
// The contention stages' fixed workload: base size, offered write rate
// (open loop, one batch every kWriteBatch / kOfferedWriteRps seconds) and
// the pending depth the epoch reader sees.
constexpr std::size_t kContentionBaseRccs = 100000;
constexpr double kOfferedWriteRps = 2000.0;
constexpr std::size_t kWriteBatch = 20;
constexpr std::size_t kEpochPending = 1000;
// Bound on the epoch read (what ingest acks and freshness probes pay).
constexpr double kEpochReadP99BoundUs = 1000.0;

double Percentile(std::vector<double> sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Fresh RCC mutations cloned from the fleet's own rows (guaranteed valid,
/// realistic intervals) with sequential new ids.
std::vector<IngestMutation> CloneRccs(const Dataset& data,
                                      std::int64_t first_id,
                                      std::size_t count) {
  std::vector<IngestMutation> mutations;
  mutations.reserve(count);
  const std::vector<Rcc>& rows = data.rccs.rows();
  for (std::size_t i = 0; i < count; ++i) {
    Rcc rcc = rows[i % rows.size()];
    rcc.id = first_id + static_cast<std::int64_t>(i);
    mutations.push_back(MakeRccUpsert(std::move(rcc)));
  }
  return mutations;
}

std::int64_t NextRccId(const Dataset& data) {
  std::int64_t max_id = 0;
  for (const Rcc& rcc : data.rccs.rows()) {
    if (rcc.id > max_id) max_id = rcc.id;
  }
  return max_id + 1;
}

/// The fleet's RCCs replicated (fresh ids, same avails) up to at least
/// `rccs` rows: the fixed base of the contention stages.
Dataset ScaledBase(const Dataset& fleet, std::size_t rccs) {
  Dataset base;
  base.avails = fleet.avails;
  base.rccs = fleet.rccs.Scale(
      static_cast<int>((rccs + fleet.rccs.size() - 1) / fleet.rccs.size()));
  return base;
}

/// Open-loop writer: appends make_batch(k) for k = 0, 1, ... on a fixed
/// schedule of kOfferedWriteRps mutations per second until `stop`; a late
/// batch does not shift the ones after it. Counts appended mutations.
template <typename MakeBatch>
std::thread PacedWriter(DataStore* store, const std::atomic<bool>* stop,
                        std::atomic<bool>* ok,
                        std::atomic<std::size_t>* appended,
                        MakeBatch make_batch) {
  return std::thread([=] {
    const auto interval = std::chrono::duration<double>(
        static_cast<double>(kWriteBatch) / kOfferedWriteRps);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t k = 0; !stop->load(std::memory_order_relaxed); ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                      interval * static_cast<double>(k)));
      if (!store->AppendBatch(make_batch(k)).ok()) {
        ok->store(false);
        return;
      }
      appended->fetch_add(kWriteBatch, std::memory_order_relaxed);
    }
  });
}

int Run() {
  bench::Banner("Ingest: durable appends, snapshot reads under compaction");
  obs::StageRecorder recorder;
  const auto stage_clock = [] { return std::chrono::steady_clock::now(); };
  const auto stage_seconds = [](std::chrono::steady_clock::time_point from,
                                std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  auto stage_start = stage_clock();

  SynthConfig synth;
  synth.seed = 73;
  synth.num_avails = 30;
  synth.mean_rccs_per_avail = 100.0;
  const Dataset fleet = GenerateDataset(synth);

  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("domd_bench_ingest_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::filesystem::remove(log_path);
  DataStoreOptions options;
  options.log_path = log_path;
  auto store = DataStore::Open(fleet, options);
  if (!store.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  std::int64_t next_id = NextRccId(fleet);
  recorder.Record("setup", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Append throughput: per-record fsync vs amortized batch fsync.
  bool append_ok = true;
  const auto singles = CloneRccs(fleet, next_id, kSingleAppends);
  next_id += static_cast<std::int64_t>(kSingleAppends);
  const auto single_start = std::chrono::steady_clock::now();
  for (const IngestMutation& mutation : singles) {
    if (!(*store)->Append(mutation).ok()) append_ok = false;
  }
  const double single_seconds = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    single_start)
                                    .count();
  const double single_rps =
      single_seconds > 0 ? static_cast<double>(kSingleAppends) / single_seconds
                         : 0.0;

  const auto batched = CloneRccs(fleet, next_id, kBatchedAppends);
  const auto batch_start = std::chrono::steady_clock::now();
  for (std::size_t offset = 0; offset < batched.size();
       offset += kBatchSize) {
    const auto end = std::min(offset + kBatchSize, batched.size());
    const std::vector<IngestMutation> batch(batched.begin() + offset,
                                            batched.begin() + end);
    if (!(*store)->AppendBatch(batch).ok()) append_ok = false;
  }
  const double batch_seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   batch_start)
                                   .count();
  const double batch_rps =
      batch_seconds > 0 ? static_cast<double>(kBatchedAppends) / batch_seconds
                        : 0.0;
  std::printf("append: %.0f RCCs/s fsync-per-record, %.0f RCCs/s batched "
              "(batch %zu, %zu total)\n",
              single_rps, batch_rps, kBatchSize,
              kSingleAppends + kBatchedAppends);
  recorder.Record("append_throughput",
                  stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Snapshots racing compaction: the paced writer keeps the tail
  // growing, a merger keeps compacting it, and the reader measures pin
  // latency against whichever representation each snapshot happens to
  // catch (base + tail materialized, or a freshly merged base).
  const Dataset contention_base = ScaledBase(fleet, kContentionBaseRccs);
  const std::int64_t contention_first_id = NextRccId(contention_base);
  std::atomic<bool> contention_ok{true};
  std::atomic<std::size_t> contention_appends{0};
  std::uint64_t merges_during = 0;
  std::vector<double> query_us;
  {
    auto contended = DataStore::Open(contention_base);
    if (!contended.ok()) return 1;
    DataStore* target = contended->get();
    std::atomic<bool> stop{false};
    std::thread writer = PacedWriter(
        target, &stop, &contention_ok, &contention_appends,
        [&](std::size_t k) {
          return CloneRccs(fleet,
                           contention_first_id +
                               static_cast<std::int64_t>(k * kWriteBatch),
                           kWriteBatch);
        });
    std::thread merger([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (!target->Merge().ok()) {
          contention_ok.store(false);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    const auto window_start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - window_start <
           kContentionWindow) {
      const auto query_start = std::chrono::steady_clock::now();
      const auto snapshot = target->Snapshot();
      const auto query_end = std::chrono::steady_clock::now();
      query_us.push_back(
          std::chrono::duration<double, std::micro>(query_end - query_start)
              .count());
      // Consistency of the pinned cut (checked outside the timed region):
      // its epoch is the fingerprint of exactly the content it exposes.
      if (snapshot->epoch() != ComputeDatasetFingerprint(snapshot->data())) {
        contention_ok.store(false);
      }
    }
    stop.store(true);
    writer.join();
    merger.join();
    merges_during = target->stats().merges;
  }

  std::sort(query_us.begin(), query_us.end());
  const double query_p50 = Percentile(query_us, 50);
  const double query_p99 = Percentile(query_us, 99);
  std::printf("query under merge: %zu snapshot pins over %zu base RCCs, "
              "p50 %.1f us, p99 %.1f us (%zu appends offered at %.0f/s, "
              "%llu merges in window)\n",
              query_us.size(), contention_base.rccs.size(), query_p50,
              query_p99, contention_appends.load(), kOfferedWriteRps,
              static_cast<unsigned long long>(merges_during));
  recorder.Record("query_under_merge",
                  stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Epoch reads beside the writer: what an ingest ack and a freshness
  // probe pay for the current store epoch. kEpochPending keys are pending
  // and the paced writer keeps amending them (no merger), so the depth
  // stays fixed while every batch moves the running digest.
  std::atomic<bool> epoch_ok{true};
  std::atomic<std::size_t> epoch_appends{0};
  std::vector<double> epoch_us;
  std::size_t epoch_pending = 0;
  {
    auto amended = DataStore::Open(contention_base);
    if (!amended.ok()) return 1;
    DataStore* target = amended->get();
    const auto pending_rows =
        CloneRccs(fleet, contention_first_id, kEpochPending);
    if (!target->AppendBatch(pending_rows).ok()) epoch_ok.store(false);
    std::atomic<bool> stop{false};
    std::thread writer = PacedWriter(
        target, &stop, &epoch_ok, &epoch_appends, [&](std::size_t k) {
          std::vector<IngestMutation> batch;
          for (std::size_t i = 0; i < kWriteBatch; ++i) {
            IngestMutation mutation =
                pending_rows[(k * kWriteBatch + i) % kEpochPending];
            mutation.rcc.settled_amount += static_cast<double>(k + 1);
            batch.push_back(std::move(mutation));
          }
          return batch;
        });
    const auto window_start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - window_start <
           kContentionWindow) {
      const auto read_start = std::chrono::steady_clock::now();
      (void)target->epoch();
      const auto read_end = std::chrono::steady_clock::now();
      epoch_us.push_back(
          std::chrono::duration<double, std::micro>(read_end - read_start)
              .count());
      // A probe cadence, not a spin: reads interleave with the writer.
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    stop.store(true);
    writer.join();
    epoch_pending = target->pending_mutations();
    if (target->epoch() !=
        ComputeDatasetFingerprint(target->Snapshot()->data())) {
      epoch_ok.store(false);
    }
  }
  std::sort(epoch_us.begin(), epoch_us.end());
  const double epoch_p50 = Percentile(epoch_us, 50);
  const double epoch_p99 = Percentile(epoch_us, 99);
  std::printf("epoch read: %zu reads at %zu pending over %zu base RCCs, "
              "p50 %.2f us, p99 %.2f us (%zu amends offered at %.0f/s)\n",
              epoch_us.size(), epoch_pending, contention_base.rccs.size(),
              epoch_p50, epoch_p99, epoch_appends.load(), kOfferedWriteRps);
  recorder.Record("epoch_read", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Snapshot-pin overhead: on a clean store, pinning must be a cached
  // O(1) hand-out, not a rebuild.
  if (!(*store)->Merge().ok()) append_ok = false;
  std::shared_ptr<const DataSnapshot> pinned;
  const auto pin_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kPinSamples; ++i) {
    pinned = (*store)->Snapshot();
  }
  const double pin_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - pin_start)
                                 .count();
  const double pin_ns =
      pin_seconds / static_cast<double>(kPinSamples) * 1e9;
  std::printf("snapshot pin: %.0f ns/pin over %zu pins (clean store)\n",
              pin_ns, kPinSamples);
  recorder.Record("snapshot_pin", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Replication: in-process log shipping. A primary appends under the
  // quorum-2 discipline (each batch acked only after a follower durably
  // applied it), then a cold follower replays the whole history through
  // TailFrom/ApplyReplicated until its (seq, chain) position matches the
  // primary's — the two DataStore halves of the serve-layer protocol with
  // the sockets removed, so these numbers bound what the wire can do.
  constexpr std::size_t kReplBatch = 64;
  constexpr std::size_t kReplRecords = 4096;
  bool repl_ok = true;
  double quorum_rps = 0.0;
  double catchup_ms = 0.0;
  std::uint64_t catchup_records = 0;
  {
    const auto repl_log = [&](const char* role) {
      return (std::filesystem::temp_directory_path() /
              ("domd_bench_repl_" + std::string(role) + "_" +
               std::to_string(::getpid()) + ".log"))
          .string();
    };
    DataStoreOptions primary_options;
    primary_options.log_path = repl_log("primary");
    std::filesystem::remove(primary_options.log_path);
    DataStoreOptions follower_options;
    follower_options.log_path = repl_log("follower");
    std::filesystem::remove(follower_options.log_path);
    DataStoreOptions cold_options;
    cold_options.log_path = repl_log("cold");
    std::filesystem::remove(cold_options.log_path);
    auto primary = DataStore::Open(fleet, primary_options);
    auto follower = DataStore::Open(fleet, follower_options);
    auto cold = DataStore::Open(fleet, cold_options);
    if (!primary.ok() || !follower.ok() || !cold.ok()) {
      repl_ok = false;
    } else {
      std::int64_t repl_id = 10'000'000;
      const auto quorum_start = std::chrono::steady_clock::now();
      for (std::size_t offset = 0; repl_ok && offset < kReplRecords;
           offset += kReplBatch) {
        const auto batch = CloneRccs(fleet, repl_id, kReplBatch);
        repl_id += static_cast<std::int64_t>(kReplBatch);
        const std::uint64_t first_seq = (*primary)->last_seq() + 1;
        if (!(*primary)->AppendBatch(batch).ok() ||
            !(*follower)->ApplyReplicated(first_seq, batch).ok()) {
          repl_ok = false;
        }
      }
      const double quorum_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        quorum_start)
              .count();
      quorum_rps = quorum_seconds > 0
                       ? static_cast<double>(kReplRecords) / quorum_seconds
                       : 0.0;

      // Cold catch-up: the follower that missed the whole stream.
      std::uint64_t primary_seq = 0;
      std::uint64_t primary_chain = 0;
      (*primary)->Position(&primary_seq, &primary_chain);
      const auto catchup_start = std::chrono::steady_clock::now();
      std::uint64_t next = (*cold)->last_seq() + 1;
      while (repl_ok) {
        std::uint64_t have_seq = 0;
        std::uint64_t have_chain = 0;
        (*cold)->Position(&have_seq, &have_chain);
        auto tail = (*primary)->TailFrom(next, &have_chain, 512);
        if (!tail.ok()) {
          repl_ok = false;
          break;
        }
        std::vector<IngestMutation> decoded;
        decoded.reserve(tail->snapshot ? tail->rows.size()
                                       : tail->records.size());
        for (const std::string& payload :
             tail->snapshot ? tail->rows : tail->records) {
          auto mutation = DecodeMutation(payload);
          if (!mutation.ok()) {
            repl_ok = false;
            break;
          }
          decoded.push_back(std::move(*mutation));
        }
        if (!repl_ok) break;
        if (tail->snapshot) {
          if (!(*cold)
                   ->InstallSnapshot(decoded, tail->last_seq, tail->chain)
                   .ok()) {
            repl_ok = false;
          }
          break;
        }
        catchup_records += decoded.size();
        if (!(*cold)->ApplyReplicated(tail->first_seq, decoded).ok()) {
          repl_ok = false;
          break;
        }
        next = (*cold)->last_seq() + 1;
        if (!tail->more) break;
      }
      catchup_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - catchup_start)
                       .count();

      // Convergence is bit-identity: both halves of the quorum and the
      // caught-up follower sit at the primary's exact (seq, chain) pair.
      for (auto* replica : {&*follower, &*cold}) {
        std::uint64_t seq = 0;
        std::uint64_t chain = 0;
        (*replica)->Position(&seq, &chain);
        if (seq != primary_seq || chain != primary_chain) repl_ok = false;
      }
    }
    std::printf("replication: %.0f RCCs/s quorum-acked (batch %zu), cold "
                "catch-up of %llu records in %.1f ms (%s)\n",
                quorum_rps, kReplBatch,
                static_cast<unsigned long long>(catchup_records), catchup_ms,
                repl_ok ? "converged" : "FAILED");
    if (primary.ok()) primary->reset();
    if (follower.ok()) follower->reset();
    if (cold.ok()) cold->reset();
    std::filesystem::remove(primary_options.log_path);
    std::filesystem::remove(follower_options.log_path);
    std::filesystem::remove(cold_options.log_path);
  }
  recorder.Record("replication", stage_seconds(stage_start, stage_clock()));
  stage_start = stage_clock();

  // ---- Final accounting: everything merged, epoch == content.
  const auto final_snapshot = (*store)->Snapshot();
  const std::size_t expected_rccs =
      fleet.rccs.size() + kSingleAppends + kBatchedAppends;
  const bool accounting_ok =
      (*store)->pending_mutations() == 0 &&
      final_snapshot->data().rccs.size() == expected_rccs &&
      final_snapshot->epoch() ==
          ComputeDatasetFingerprint(final_snapshot->data());
  const IngestStats stats = (*store)->stats();
  std::printf("final: %zu RCCs, epoch %llx, %llu merges, %llu appended\n",
              final_snapshot->data().rccs.size(),
              static_cast<unsigned long long>(final_snapshot->epoch()),
              static_cast<unsigned long long>(stats.merges),
              static_cast<unsigned long long>(stats.appended));
  recorder.Record("final_accounting",
                  stage_seconds(stage_start, stage_clock()));

  const bool epoch_read_ok = epoch_ok.load() && !epoch_us.empty() &&
                             epoch_pending == kEpochPending &&
                             epoch_p99 < kEpochReadP99BoundUs;
  const bool pass = append_ok && contention_ok.load() && accounting_ok &&
                    merges_during >= 1 && !query_us.empty() &&
                    epoch_read_ok &&
                    batch_rps > 1000.0 && pin_ns < 10000.0 && repl_ok &&
                    quorum_rps > 200.0 && catchup_ms < 10000.0;

  std::ofstream json("BENCH_ingest.json");
  json << "{\n  \"bench\": \"ingest\",\n";
  json << "  \"commit\": \"" << bench::SourceCommit() << "\",\n";
  json << "  \"hardware_threads\": " << Parallelism::HardwareThreads()
       << ",\n";
  json << "  \"fleet\": {\"num_avails\": " << fleet.avails.size()
       << ", \"num_rccs\": " << fleet.rccs.size() << "},\n";
  json << "  \"append\": {\"single_fsync_rps\": " << single_rps
       << ", \"batched_rps\": " << batch_rps
       << ", \"batch_size\": " << kBatchSize
       << ", \"total_appended\": " << stats.appended
       << ", \"ok\": " << (append_ok ? "true" : "false") << "},\n";
  json << "  \"query_under_merge\": {\"queries\": " << query_us.size()
       << ", \"base_rccs\": " << contention_base.rccs.size()
       << ", \"offered_write_rps\": " << kOfferedWriteRps
       << ", \"p50_us\": " << query_p50 << ", \"p99_us\": " << query_p99
       << ", \"appends_in_window\": " << contention_appends.load()
       << ", \"merges_in_window\": " << merges_during
       << ", \"consistent\": " << (contention_ok.load() ? "true" : "false")
       << "},\n";
  json << "  \"epoch_read\": {\"reads\": " << epoch_us.size()
       << ", \"base_rccs\": " << contention_base.rccs.size()
       << ", \"pending\": " << epoch_pending
       << ", \"offered_write_rps\": " << kOfferedWriteRps
       << ", \"p50_us\": " << epoch_p50 << ", \"p99_us\": " << epoch_p99
       << ", \"p99_bound_us\": " << kEpochReadP99BoundUs
       << ", \"amends_in_window\": " << epoch_appends.load()
       << ", \"consistent\": " << (epoch_ok.load() ? "true" : "false")
       << "},\n";
  json << "  \"snapshot_pin\": {\"samples\": " << kPinSamples
       << ", \"ns_per_pin\": " << pin_ns << "},\n";
  json << "  \"replication\": {\"quorum_acked_rps\": " << quorum_rps
       << ", \"quorum_batch\": " << kReplBatch
       << ", \"records\": " << kReplRecords
       << ", \"catchup_ms\": " << catchup_ms
       << ", \"catchup_records\": " << catchup_records
       << ", \"converged\": " << (repl_ok ? "true" : "false") << "},\n";
  json << "  \"final\": {\"rccs\": " << final_snapshot->data().rccs.size()
       << ", \"merges\": " << stats.merges
       << ", \"pending\": " << (*store)->pending_mutations()
       << ", \"epoch_matches_content\": "
       << (accounting_ok ? "true" : "false") << "},\n";
  json << "  \"stage_timings\": " << recorder.ToJson() << ",\n";
  json << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::printf("\nwrote BENCH_ingest.json (%s)\n", pass ? "PASS" : "FAIL");

  store->reset();
  std::filesystem::remove(log_path);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace domd

int main() { return domd::Run(); }
