// Tests for the PredictionService scoring engine: micro-batching, bounded
// admission with explicit backpressure, per-request deadlines, hot-swap
// under concurrent load (no torn models), and drain-on-shutdown.

#include "serve/prediction_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "serve/serve_test_fixture.h"
#include "serve/wire.h"

// The batching tests hold the batcher inside the serve.batch.score fault
// point; in a -DDOMD_DISABLE_FAULTS build they self-skip.
#if DOMD_FAULT_COMPILED
#define DOMD_SKIP_WITHOUT_FAULTS() (void)0
#else
#define DOMD_SKIP_WITHOUT_FAULTS() \
  GTEST_SKIP() << "fault injection compiled out (DOMD_DISABLE_FAULTS)"
#endif

namespace domd {
namespace {

using testing_internal::GetServeFixture;
using testing_internal::MakeDetachedRequest;

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Holds the batcher on its current batch: arms a latency fault on the
/// whole-batch gate every batch passes, so requests submitted while it
/// sleeps queue up deterministically instead of racing the batcher.
class BatcherHold {
 public:
  BatcherHold()
      : injection_("serve.batch.score=latency-ms:100"),
        point_(fault::FaultRegistry::Default().GetPoint("serve.batch.score")),
        hits_before_(point_.hits()) {}

  /// Blocks until the batcher has dequeued a batch and entered the gate.
  void WaitUntilHeld() const {
    while (point_.hits() == hits_before_) std::this_thread::yield();
  }

 private:
  fault::ScopedFaultInjection injection_;
  fault::FaultPoint& point_;
  std::uint64_t hits_before_;
};

TEST(PredictionServiceTest, PredictMatchesDirectBundleScoring) {
  const auto& fixture = GetServeFixture();
  PredictionService service(fixture.v1);
  const ScoreRequest request = MakeDetachedRequest(
      fixture.pipeline.data, fixture.pipeline.split.test.front());

  const auto served = service.Predict(request);
  ASSERT_TRUE(served.ok()) << served.status();
  const auto direct = fixture.v1->ScoreBatch({request});
  ASSERT_TRUE(direct[0].ok());
  EXPECT_TRUE(BitIdentical(served->estimate_days, direct[0]->estimate_days));
  EXPECT_EQ(served->bundle_version, "v1");
}

TEST(PredictionServiceTest, MicroBatchesCoalesceQueuedRequests) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_batch_size = 8;
  PredictionService service(fixture.v1, options);
  std::vector<ScoreRequest> requests;
  for (std::size_t i = 0; i < 5; ++i) {
    requests.push_back(MakeDetachedRequest(
        fixture.pipeline.data,
        fixture.pipeline.split.test[i % fixture.pipeline.split.test.size()]));
  }

  // The batcher takes the first request alone and is held scoring it;
  // the next four queue meanwhile and must form exactly one batch.
  std::vector<std::future<StatusOr<ServePrediction>>> futures;
  {
    BatcherHold hold;
    futures.push_back(service.Submit(requests[0]));
    hold.WaitUntilHeld();
    for (std::size_t i = 1; i < requests.size(); ++i) {
      futures.push_back(service.Submit(requests[i]));
    }
    for (auto& future : futures) {
      const auto result = future.get();
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.accepted, 5u);
  EXPECT_EQ(stats.completed_ok, 5u);
  EXPECT_EQ(stats.batched_requests, 5u);
  // One batch of 1, then one tensor block for the four that queued.
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.queue_depth_hwm, 4u);
}

TEST(PredictionServiceTest, OverloadRejectsWithResourceExhausted) {
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_queue_depth = 0;  // everything is overload.
  PredictionService service(fixture.v1, options);

  const auto result = service.Predict(MakeDetachedRequest(
      fixture.pipeline.data, fixture.pipeline.split.test.front()));
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(PredictionServiceTest, BoundedQueueRejectsWhileFullThenRecovers) {
  DOMD_SKIP_WITHOUT_FAULTS();
  const auto& fixture = GetServeFixture();
  ServeOptions options;
  options.max_queue_depth = 1;
  PredictionService service(fixture.v1, options);
  const ScoreRequest request = MakeDetachedRequest(
      fixture.pipeline.data, fixture.pipeline.split.test.front());

  {
    // While the batcher is held on the first request, the second one
    // occupies the whole queue and the third must bounce with the
    // explicit backpressure status.
    BatcherHold hold;
    auto scoring = service.Submit(request);
    hold.WaitUntilHeld();
    auto queued = service.Submit(request);
    const auto rejected = service.Predict(request);
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
    for (auto* future : {&scoring, &queued}) {
      const auto result = future->get();
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }
  // Once drained, admission reopens.
  const auto retry = service.Predict(request);
  ASSERT_TRUE(retry.ok()) << retry.status();
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.completed_ok, 3u);
}

TEST(PredictionServiceTest, ExpiredDeadlineAnsweredWithoutScoring) {
  const auto& fixture = GetServeFixture();
  PredictionService service(fixture.v1);
  const auto result = service.Predict(
      MakeDetachedRequest(fixture.pipeline.data,
                          fixture.pipeline.split.test.front()),
      PredictionService::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.expired_deadline, 1u);
  EXPECT_EQ(stats.completed_ok, 0u);
  EXPECT_EQ(stats.batched_requests, 0u);
}

TEST(PredictionServiceTest, HotSwapUnderLoadNeverTearsAModel) {
  const auto& fixture = GetServeFixture();
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 12;

  // One request per client thread, with the expected estimate precomputed
  // under both bundles: a response is torn iff its estimate matches
  // neither, or does not match the bundle version it claims.
  std::vector<ScoreRequest> requests;
  std::map<std::string, std::vector<double>> expected;
  for (std::size_t t = 0; t < kThreads; ++t) {
    requests.push_back(MakeDetachedRequest(
        fixture.pipeline.data,
        fixture.pipeline.split
            .test[t % fixture.pipeline.split.test.size()]));
  }
  for (const auto& [bundle, tag] :
       {std::pair{fixture.v1, "v1"}, std::pair{fixture.v2, "v2"}}) {
    for (const ScoreRequest& request : requests) {
      const auto solo = bundle->ScoreBatch({request});
      ASSERT_TRUE(solo[0].ok()) << solo[0].status();
      expected[tag].push_back(solo[0]->estimate_days);
    }
  }

  PredictionService service(fixture.v1);
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> torn{0};
  std::atomic<std::size_t> failed{0};
  std::map<std::string, std::atomic<std::size_t>> per_version;
  per_version["v1"] = 0;
  per_version["v2"] = 0;

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto result = service.Predict(requests[t]);
        if (!result.ok()) {
          failed.fetch_add(1);
        } else {
          const auto it = expected.find(result->bundle_version);
          if (it == expected.end() ||
              !BitIdentical(result->estimate_days, it->second[t])) {
            torn.fetch_add(1);
          } else {
            per_version[result->bundle_version].fetch_add(1);
          }
        }
        completed.fetch_add(1);
      }
    });
  }
  // Swap once, mid-run: wait until the service has answered a few requests
  // on v1, then publish v2 while the clients keep hammering.
  while (completed.load() < kThreads) {
    std::this_thread::yield();
  }
  service.SwapBundle(fixture.v2);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  // Requests completed before the swap (>= kThreads of them) ran on v1.
  EXPECT_GT(per_version["v1"].load(), 0u);
  EXPECT_EQ(per_version["v1"].load() + per_version["v2"].load(),
            kThreads * kPerThread);
  // Every batch after the swap snapshots v2, bit-exactly.
  const auto after = service.Predict(requests[0]);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->bundle_version, "v2");
  EXPECT_TRUE(BitIdentical(after->estimate_days, expected["v2"][0]));
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.bundle_version, "v2");
  EXPECT_EQ(stats.completed_ok, kThreads * kPerThread + 1);
}

TEST(PredictionServiceTest, ShutdownDrainsAcceptedRequestsThenFailsFast) {
  const auto& fixture = GetServeFixture();
  PredictionService service(fixture.v1);
  const ScoreRequest request = MakeDetachedRequest(
      fixture.pipeline.data, fixture.pipeline.split.test.front());

  std::vector<std::future<StatusOr<ServePrediction>>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(service.Submit(request));
  service.Shutdown();
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status();  // drained, not dropped.
  }
  const auto late = service.Predict(request);
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.completed_ok, 3u);
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  service.Shutdown();  // idempotent.
}

TEST(PredictionServiceTest, StatsCountersBalance) {
  const auto& fixture = GetServeFixture();
  PredictionService service(fixture.v1);
  const ScoreRequest good = MakeDetachedRequest(
      fixture.pipeline.data, fixture.pipeline.split.test.front());
  ScoreRequest bad;  // invalid avail: scored slot answers with an error.

  ASSERT_TRUE(service.Predict(good).ok());
  EXPECT_EQ(service.Predict(bad).status().code(),
            StatusCode::kInvalidArgument);
  const ServeStatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected_overload +
                                 stats.rejected_shutdown);
  EXPECT_EQ(stats.accepted,
            stats.completed_ok + stats.completed_error +
                stats.expired_deadline + stats.queue_depth);
  EXPECT_EQ(stats.completed_ok, 1u);
  EXPECT_EQ(stats.completed_error, 1u);
  EXPECT_EQ(stats.bundle_version, "v1");
}

// Regression: an avail whose planned window is empty (planned_end ==
// planned_start) previously reached feature engineering, where the
// zero-length window produced NaNs. It must be rejected as
// kInvalidArgument — both at wire parse time and through the scoring path.
TEST(PredictionServiceTest, DegeneratePlannedWindowIsInvalidArgument) {
  const auto& fixture = GetServeFixture();
  ScoreRequest request = MakeDetachedRequest(
      fixture.pipeline.data, fixture.pipeline.split.test.front());
  request.avail.planned_end = request.avail.planned_start;

  // Scoring path: the shared integrity sweep rejects before any features
  // are computed.
  PredictionService service(fixture.v1);
  const auto served = service.Predict(request);
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);

  // Wire path: ParseScoreRequest runs the same checks, so a malformed
  // request fails fast before it is ever queued.
  const auto json = JsonValue::Parse(
      R"({"avail": {"id": 1, "status": "ongoing",)"
      R"( "planned_start": "2020-01-01", "planned_end": "2020-01-01",)"
      R"( "actual_start": "2020-01-01"}, "t_star": 50})");
  ASSERT_TRUE(json.ok()) << json.status();
  const auto parsed = ParseScoreRequest(*json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// A served request populates the serve metric cells in the default
// registry: the per-outcome counter, queue-wait, batch-size, and
// batch-score histograms.
TEST(PredictionServiceTest, ServingPopulatesMetricCells) {
#if DOMD_OBS_COMPILED
  obs::ScopedEnable on(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter& ok_counter =
      registry.GetCounter("domd_serve_requests_total{code=\"OK\"}");
  obs::Histogram& wait = registry.GetHistogram("domd_serve_queue_wait_ms",
                                               obs::LatencyBucketsMs());
  obs::Histogram& batch_size =
      registry.GetHistogram("domd_serve_batch_size", obs::SizeBuckets());
  obs::Histogram& score = registry.GetHistogram("domd_serve_batch_score_ms",
                                                obs::LatencyBucketsMs());
  const std::uint64_t ok_before = ok_counter.Value();
  const std::uint64_t wait_before = wait.Count();
  const std::uint64_t size_before = batch_size.Count();
  const std::uint64_t score_before = score.Count();

  const auto& fixture = GetServeFixture();
  PredictionService service(fixture.v1);
  ASSERT_TRUE(service
                  .Predict(MakeDetachedRequest(
                      fixture.pipeline.data,
                      fixture.pipeline.split.test.front()))
                  .ok());

  EXPECT_EQ(ok_counter.Value(), ok_before + 1);
  EXPECT_EQ(wait.Count(), wait_before + 1);
  EXPECT_EQ(batch_size.Count(), size_before + 1);
  EXPECT_EQ(score.Count(), score_before + 1);
#else
  GTEST_SKIP() << "observability compiled out (DOMD_DISABLE_OBS)";
#endif
}

// With the runtime switch off, serving touches no metric cell.
TEST(PredictionServiceTest, DisabledMetricsRecordNothingWhileServing) {
  obs::ScopedEnable off(false);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter& ok_counter =
      registry.GetCounter("domd_serve_requests_total{code=\"OK\"}");
  obs::Histogram& wait = registry.GetHistogram("domd_serve_queue_wait_ms",
                                               obs::LatencyBucketsMs());
  const std::uint64_t ok_before = ok_counter.Value();
  const std::uint64_t wait_before = wait.Count();

  const auto& fixture = GetServeFixture();
  PredictionService service(fixture.v1);
  ASSERT_TRUE(service
                  .Predict(MakeDetachedRequest(
                      fixture.pipeline.data,
                      fixture.pipeline.split.test.front()))
                  .ok());

  EXPECT_EQ(ok_counter.Value(), ok_before);
  EXPECT_EQ(wait.Count(), wait_before);
}

}  // namespace
}  // namespace domd
