// Chaos suite: scripted fault schedules drive the serving stack through
// torn publishes, corrupt artifacts, transient I/O bursts, and whole-batch
// scoring outages, asserting the robustness contracts of DESIGN.md §10:
//  - a corrupt or torn bundle is rejected as DATA_LOSS and never serves;
//  - transient faults are absorbed by bounded retry, invisibly to clients;
//  - a failed hot-swap leaves the last-known-good bundle serving
//    bit-identical predictions;
//  - the circuit breaker sheds load while scoring is down and recovers
//    through a half-open probe;
//  - with injection disabled, behavior is byte-identical to a fault-free
//    build.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "serve/prediction_service.h"
#include "serve/serve_test_fixture.h"

// Most of the suite needs the injection sites compiled in; in a
// -DDOMD_DISABLE_FAULTS build those tests self-skip, while the ones that
// corrupt artifacts by hand (no injection needed) still run.
#if DOMD_FAULT_COMPILED
#define DOMD_SKIP_WITHOUT_FAULTS() (void)0
#else
#define DOMD_SKIP_WITHOUT_FAULTS() \
  GTEST_SKIP() << "fault injection compiled out (DOMD_DISABLE_FAULTS)"
#endif

namespace domd {
namespace {

using fault::FaultRegistry;
using fault::ScopedFaultInjection;
using testing_internal::GetServeFixture;
using testing_internal::MakeDetachedRequest;

std::string CopyBundleDir(const std::string& source, const std::string& tag) {
  const std::string dest = ::testing::TempDir() + "/domd_chaos_" + tag;
  std::filesystem::remove_all(dest);
  std::filesystem::copy(source, dest,
                        std::filesystem::copy_options::recursive);
  return dest;
}

void FlipOneByte(const std::string& path, std::size_t offset = 100) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), offset);
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Reference-fleet predictions over the first few avails — the fingerprint
/// two bundles (or one bundle before/after a chaos event) are compared by.
std::vector<ServePrediction> Fingerprint(const ModelBundle& bundle) {
  std::vector<ServePrediction> predictions;
  std::size_t taken = 0;
  for (const Avail& avail : bundle.data().avails.rows()) {
    if (taken++ == 5) break;
    auto scored = bundle.ScoreReferenceAvail(avail.id, 100.0, 3);
    if (scored.ok()) predictions.push_back(*scored);
  }
  return predictions;
}

void ExpectSamePredictions(const std::vector<ServePrediction>& a,
                           const std::vector<ServePrediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].avail_id, b[i].avail_id);
    // Exact double equality on purpose: the robustness contract is
    // bit-identical predictions, not merely close ones.
    EXPECT_EQ(a[i].estimate_days, b[i].estimate_days);
    EXPECT_EQ(a[i].band_low, b[i].band_low);
    EXPECT_EQ(a[i].band_high, b[i].band_high);
  }
}

TEST(ChaosTest, FlippedByteInModelsIsDataLossAndNeverServes) {
  const auto& fixture = GetServeFixture();
  const std::string dir = CopyBundleDir(fixture.dir_v1, "flip_models");
  FlipOneByte(dir + "/models.txt");
  const auto loaded = ModelBundle::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("checksum"), std::string::npos);
}

TEST(ChaosTest, FlippedByteInReferenceTablesIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = CopyBundleDir(fixture.dir_v1, "flip_avails");
  FlipOneByte(dir + "/avails.csv");
  const auto loaded = ModelBundle::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(ChaosTest, MissingPayloadFileIsDataLossNotIoError) {
  const auto& fixture = GetServeFixture();
  const std::string dir = CopyBundleDir(fixture.dir_v1, "torn_publish");
  std::filesystem::remove(dir + "/rccs.csv");
  const auto loaded = ModelBundle::Load(dir);
  ASSERT_FALSE(loaded.ok());
  // The manifest promises the file, so its absence is a torn publish —
  // permanent, never retried.
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(ChaosTest, DataLossIsNeverRetried) {
  const auto& fixture = GetServeFixture();
  const std::string dir = CopyBundleDir(fixture.dir_v1, "flip_noretry");
  FlipOneByte(dir + "/models.txt");
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.sleeper = [](std::chrono::nanoseconds) {
    FAIL() << "permanent DATA_LOSS must not back off and retry";
  };
  const auto loaded = LoadBundleWithRetry(dir, {}, kDefaultViewCacheBytes,
                                          retry);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(ChaosTest, InjectedReadCorruptionIsCaughtByChecksumGate) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  ScopedFaultInjection faults("serve.bundle.corrupt=corrupt:1:13");
  const auto loaded = ModelBundle::Load(fixture.dir_v1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_GE(FaultRegistry::Default().TotalInjected(), 1u);
}

TEST(ChaosTest, TornCommitLeavesPublishedBundleIntact) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  const std::string dir = CopyBundleDir(fixture.dir_v1, "torn_commit");
  const auto before = ModelBundle::Load(dir);
  ASSERT_TRUE(before.ok());
  const auto baseline = Fingerprint(**before);

  {
    // The crash lands exactly at the commit point: everything is staged
    // and fsynced, but the rename never happens.
    ScopedFaultInjection faults("serve.bundle.commit=fail-nth:1");
    const Status written = ModelBundle::Write(
        *fixture.estimator_v1, fixture.pipeline.data, dir, "v9");
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.code(), StatusCode::kIoError);
  }

  // The published path still holds the old complete bundle, verbatim.
  const auto after = ModelBundle::Load(dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->version(), "v1");
  ExpectSamePredictions(baseline, Fingerprint(**after));
}

TEST(ChaosTest, InterruptedRepublishOverExistingBundleKeepsServing) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  const std::string dir = CopyBundleDir(fixture.dir_v1, "torn_write");
  {
    // Crash while writing the staged files — before anything commits.
    ScopedFaultInjection faults("serve.bundle.write=fail-nth:2");
    const Status written = ModelBundle::Write(
        *fixture.estimator_v1, fixture.pipeline.data, dir, "v9");
    ASSERT_FALSE(written.ok());
  }
  const auto after = ModelBundle::Load(dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->version(), "v1");
}

TEST(ChaosTest, TransientReadFaultsAreAbsorbedByRetry) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  ScopedFaultInjection faults("serve.bundle.read=fail-first:2");

  // Unretried, the transient burst is fatal (and consumes one hit) ...
  const auto direct = ModelBundle::Load(fixture.dir_v1);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kIoError);

  // ... while the retry wrapper rides it out with zero visible errors.
  RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(1);
  const auto loaded = LoadBundleWithRetry(fixture.dir_v1, {},
                                          kDefaultViewCacheBytes, retry);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->version(), "v1");
  ExpectSamePredictions(Fingerprint(*fixture.v1), Fingerprint(**loaded));
}

TEST(ChaosTest, FailedHotSwapKeepsLastKnownGoodBitIdentical) {
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_batch_size = 4;
  PredictionService service(fixture.v1, options);

  const auto request = [&fixture](std::int64_t avail_id) {
    return MakeDetachedRequest(fixture.pipeline.data, avail_id, 100.0, 3);
  };
  const std::int64_t probe_id = fixture.pipeline.data.avails.rows()[0].id;
  const auto before = service.Predict(request(probe_id));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->bundle_version, "v1");

  // The replacement artifact is corrupt: the swap must fail closed.
  const std::string corrupt_dir = CopyBundleDir(fixture.dir_v2, "bad_swap");
  FlipOneByte(corrupt_dir + "/models.txt");
  const auto swap = LoadBundleWithRetry(corrupt_dir);
  ASSERT_FALSE(swap.ok());
  EXPECT_EQ(swap.status().code(), StatusCode::kDataLoss);
  service.NoteSwapFailure(swap.status());

  // Degraded gracefully: same bundle, bit-identical answers, failure
  // visible in stats.
  const auto after = service.Predict(request(probe_id));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->bundle_version, "v1");
  EXPECT_EQ(after->estimate_days, before->estimate_days);
  EXPECT_EQ(after->band_low, before->band_low);
  EXPECT_EQ(after->band_high, before->band_high);
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.swap_failures, 1u);
  EXPECT_EQ(stats.bundle_version, "v1");

  // A healthy artifact still swaps: degradation is per-failure, not
  // sticky.
  const auto good = LoadBundleWithRetry(fixture.dir_v2);
  ASSERT_TRUE(good.ok());
  service.SwapBundle(*good);
  const auto swapped = service.Predict(request(probe_id));
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped->bundle_version, "v2");
}

TEST(ChaosTest, BreakerShedsLoadAndRecoversThroughHalfOpenProbe) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_batch_size = 1;
  options.breaker_failure_threshold = 2;
  options.breaker_open_duration = std::chrono::milliseconds(100);
  PredictionService service(fixture.v1, options);
  const std::int64_t probe_id = fixture.pipeline.data.avails.rows()[0].id;
  const auto request = [&fixture, probe_id] {
    return MakeDetachedRequest(fixture.pipeline.data, probe_id, 100.0, 3);
  };

  ScopedFaultInjection faults("serve.batch.score=fail-first:2");

  // Two consecutive whole-batch failures trip the breaker ...
  EXPECT_EQ(service.Predict(request()).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(service.Predict(request()).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);

  // ... after which load is shed without queueing or scoring anything.
  const auto shed = service.Predict(request());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  // Once the open interval elapses, a probe is admitted; the fault burst
  // is exhausted, so the probe scores and closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto probe = service.Predict(request());
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(service.breaker_state(), BreakerState::kClosed);

  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.batch_failures, 2u);
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_GE(stats.rejected_breaker, 1u);
  EXPECT_EQ(stats.breaker, BreakerState::kClosed);
}

TEST(ChaosTest, FailedHalfOpenProbeReopensTheBreaker) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_batch_size = 1;
  options.breaker_failure_threshold = 1;
  options.breaker_open_duration = std::chrono::milliseconds(50);
  PredictionService service(fixture.v1, options);
  const std::int64_t probe_id = fixture.pipeline.data.avails.rows()[0].id;
  const auto request = [&fixture, probe_id] {
    return MakeDetachedRequest(fixture.pipeline.data, probe_id, 100.0, 3);
  };

  ScopedFaultInjection faults("serve.batch.score=fail-first:2");
  EXPECT_FALSE(service.Predict(request()).ok());  // trips (threshold 1).
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(service.Predict(request()).ok());  // probe fails: reopens.
  EXPECT_EQ(service.breaker_state(), BreakerState::kOpen);
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.breaker_opens, 2u);
}

TEST(ChaosTest, ArmedButDisabledFaultsChangeNothing) {
  const auto& fixture = GetServeFixture();
  // Arm an apocalyptic spec but leave the global switch off: every site
  // must behave exactly as if the spec did not exist.
  ASSERT_TRUE(FaultRegistry::Default()
                  .ApplySpec("serve.bundle.read=fail-first:1000000,"
                             "serve.bundle.corrupt=corrupt:8:1,"
                             "serve.batch.score=fail-first:1000000")
                  .ok());
  ASSERT_FALSE(fault::Enabled());

  const auto loaded = ModelBundle::Load(fixture.dir_v1);
  ASSERT_TRUE(loaded.ok());
  ExpectSamePredictions(Fingerprint(*fixture.v1), Fingerprint(**loaded));

  ServeOptions options;
  PredictionService service(*loaded, options);
  const std::int64_t probe_id = fixture.pipeline.data.avails.rows()[0].id;
  const auto scored = service.Predict(
      MakeDetachedRequest(fixture.pipeline.data, probe_id, 100.0, 3));
  EXPECT_TRUE(scored.ok());
  EXPECT_EQ(FaultRegistry::Default().TotalInjected(), 0u);
  FaultRegistry::Default().Clear();
}

}  // namespace
}  // namespace domd
