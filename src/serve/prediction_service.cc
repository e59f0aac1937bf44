#include "serve/prediction_service.h"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"

namespace domd {
namespace {

/// Milliseconds between two steady-clock samples, as a double.
double ElapsedMs(PredictionService::Clock::time_point from,
                 PredictionService::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

const char* BreakerStateToString(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

ServeMetricCells ServeMetricCells::Create() {
  ServeMetricCells cells;
#if DOMD_OBS_COMPILED
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  cells.queue_wait_ms = &registry.GetHistogram("domd_serve_queue_wait_ms",
                                               obs::LatencyBucketsMs());
  cells.batch_size =
      &registry.GetHistogram("domd_serve_batch_size", obs::SizeBuckets());
  cells.batch_score_ms = &registry.GetHistogram("domd_serve_batch_score_ms",
                                                obs::LatencyBucketsMs());
  cells.queue_depth = &registry.GetGauge("domd_serve_queue_depth");
  cells.swap_failures =
      &registry.GetCounter("domd_serve_swap_failures_total");
  cells.batch_failures =
      &registry.GetCounter("domd_serve_batch_failures_total");
  cells.breaker_opens =
      &registry.GetCounter("domd_serve_breaker_opens_total");
  cells.breaker_state = &registry.GetGauge("domd_serve_breaker_state");
  for (std::size_t code = 0; code < kNumStatusCodes; ++code) {
    cells.outcomes[code] = &registry.GetCounter(
        std::string("domd_serve_requests_total{code=\"") +
        StatusCodeToString(static_cast<StatusCode>(code)) + "\"}");
  }
#endif
  return cells;
}

PredictionService::PredictionService(
    std::shared_ptr<const ModelBundle> bundle, const ServeOptions& options)
    : options_(options),
      bundle_(std::move(bundle)),
      metrics_(ServeMetricCells::Create()) {
  batcher_ = std::thread([this] { BatcherLoop(); });
}

void PredictionService::CountOutcome(StatusCode code) {
  const auto index = static_cast<std::size_t>(code);
  if (index >= metrics_.outcomes.size()) return;
  if (obs::Counter* counter = metrics_.outcomes[index];
      counter != nullptr && obs::Enabled()) {
    counter->Increment();
  }
}

PredictionService::~PredictionService() { Shutdown(); }

void PredictionService::SubmitAsync(ScoreRequest request,
                                    std::optional<Clock::time_point> deadline,
                                    Completion completion) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  std::optional<Status> rejection;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      CountOutcome(StatusCode::kFailedPrecondition);
      rejection = Status::FailedPrecondition("prediction service is shut down");
    }
    // Breaker shed: while Open, refuse load we know we cannot score. Once
    // the open interval elapses, admit traffic again as a HalfOpen probe.
    if (!rejection.has_value() && options_.breaker_failure_threshold > 0 &&
        breaker_ == BreakerState::kOpen) {
      if (Clock::now() >= breaker_open_until_) {
        breaker_ = BreakerState::kHalfOpen;
        SetBreakerGaugeLocked();
      } else {
        rejected_breaker_.fetch_add(1, std::memory_order_relaxed);
        CountOutcome(StatusCode::kUnavailable);
        rejection = Status::Unavailable(
            "circuit breaker open after " +
            std::to_string(consecutive_batch_failures_) +
            " consecutive batch failures; shedding load");
      }
    }
    if (!rejection.has_value() &&
        queue_.size() >= options_.max_queue_depth) {
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      CountOutcome(StatusCode::kResourceExhausted);
      rejection = Status::ResourceExhausted(
          "admission queue full (" +
          std::to_string(options_.max_queue_depth) + " pending)");
    }
    if (!rejection.has_value()) {
      Pending pending;
      pending.request = std::move(request);
      pending.deadline = deadline;
      pending.completion = std::move(completion);
      // Clock sample only while metrics are live; the epoch default tells
      // the dequeue side to skip the queue-wait observation.
      if (metrics_.queue_wait_ms != nullptr && obs::Enabled()) {
        pending.enqueued = Clock::now();
      }
      queue_.push_back(std::move(pending));
      accepted_.fetch_add(1, std::memory_order_relaxed);
      queue_depth_hwm_ = std::max<std::uint64_t>(queue_depth_hwm_,
                                                 queue_.size());
      if (metrics_.queue_depth != nullptr && obs::Enabled()) {
        metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
      }
      work_available_.notify_one();
      return;
    }
  }
  // Rejection completions run after the mutex is released: a completion is
  // allowed to be slow-ish plumbing (e.g. posting to a reactor mailbox)
  // and must never extend the admission critical section.
  completion(StatusOr<ServePrediction>(std::move(*rejection)));
}

std::future<StatusOr<ServePrediction>> PredictionService::Submit(
    ScoreRequest request, std::optional<Clock::time_point> deadline) {
  auto promise =
      std::make_shared<std::promise<StatusOr<ServePrediction>>>();
  std::future<StatusOr<ServePrediction>> future = promise->get_future();
  SubmitAsync(std::move(request), deadline,
              [promise](StatusOr<ServePrediction> result) {
                promise->set_value(std::move(result));
              });
  return future;
}

StatusOr<ServePrediction> PredictionService::Predict(
    ScoreRequest request, std::optional<Clock::time_point> deadline) {
  return Submit(std::move(request), deadline).get();
}

void PredictionService::SwapBundle(
    std::shared_ptr<const ModelBundle> bundle) {
  bundle_.store(std::move(bundle));
  swaps_.fetch_add(1, std::memory_order_relaxed);
}

void PredictionService::NoteSwapFailure(const Status& status) {
  (void)status;
  swap_failures_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.swap_failures != nullptr && obs::Enabled()) {
    metrics_.swap_failures->Increment();
  }
}

BreakerState PredictionService::breaker_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return breaker_;
}

void PredictionService::SetBreakerGaugeLocked() {
  if (metrics_.breaker_state != nullptr && obs::Enabled()) {
    metrics_.breaker_state->Set(static_cast<double>(static_cast<int>(breaker_)));
  }
}

void PredictionService::RecordBatchOutcome(bool success) {
  if (options_.breaker_failure_threshold == 0) {
    if (!success) batch_failures_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (success) {
    consecutive_batch_failures_ = 0;
    if (breaker_ != BreakerState::kClosed) {
      breaker_ = BreakerState::kClosed;
      SetBreakerGaugeLocked();
    }
    return;
  }
  batch_failures_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_.batch_failures != nullptr && obs::Enabled()) {
    metrics_.batch_failures->Increment();
  }
  ++consecutive_batch_failures_;
  // A failed HalfOpen probe reopens immediately; Closed trips only once
  // the consecutive-failure budget is spent.
  const bool trip =
      breaker_ == BreakerState::kHalfOpen ||
      (breaker_ == BreakerState::kClosed &&
       consecutive_batch_failures_ >= options_.breaker_failure_threshold);
  if (trip) {
    breaker_ = BreakerState::kOpen;
    breaker_open_until_ = Clock::now() + options_.breaker_open_duration;
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.breaker_opens != nullptr && obs::Enabled()) {
      metrics_.breaker_opens->Increment();
    }
    SetBreakerGaugeLocked();
  }
}

ServeStatsSnapshot PredictionService::stats() const {
  ServeStatsSnapshot snapshot;
  snapshot.submitted = submitted_.load(std::memory_order_relaxed);
  snapshot.accepted = accepted_.load(std::memory_order_relaxed);
  snapshot.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  snapshot.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_relaxed);
  snapshot.expired_deadline =
      expired_deadline_.load(std::memory_order_relaxed);
  snapshot.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  snapshot.completed_error = completed_error_.load(std::memory_order_relaxed);
  snapshot.batches = batches_.load(std::memory_order_relaxed);
  snapshot.batched_requests =
      batched_requests_.load(std::memory_order_relaxed);
  snapshot.swaps = swaps_.load(std::memory_order_relaxed);
  snapshot.swap_failures = swap_failures_.load(std::memory_order_relaxed);
  snapshot.batch_failures = batch_failures_.load(std::memory_order_relaxed);
  snapshot.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  snapshot.rejected_breaker =
      rejected_breaker_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.queue_depth_hwm = queue_depth_hwm_;
    snapshot.queue_depth = queue_.size();
    snapshot.breaker = breaker_;
  }
  snapshot.bundle_version = bundle()->version();
  return snapshot;
}

void PredictionService::Shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutting_down_ = true;
  work_available_.notify_all();
  if (!batcher_.joinable()) return;  // someone already joined (idempotent).
  std::thread to_join = std::move(batcher_);  // claim the join under lock.
  lock.unlock();
  to_join.join();
}

void PredictionService::BatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down, fully drained.

      // Opportunistic micro-batching: take what queued while the previous
      // batch scored, without waiting for more arrivals.
      const std::size_t take =
          std::min(queue_.size(), options_.max_batch_size);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (metrics_.queue_depth != nullptr && obs::Enabled()) {
        metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
      }
    }

    // Deadline gate: answer dead requests without scoring them.
    const Clock::time_point now = Clock::now();
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (Pending& pending : batch) {
      if (metrics_.queue_wait_ms != nullptr && obs::Enabled() &&
          pending.enqueued != Clock::time_point{}) {
        metrics_.queue_wait_ms->Observe(ElapsedMs(pending.enqueued, now));
      }
      if (pending.deadline.has_value() && *pending.deadline < now) {
        expired_deadline_.fetch_add(1, std::memory_order_relaxed);
        CountOutcome(StatusCode::kDeadlineExceeded);
        pending.completion(StatusOr<ServePrediction>(
            Status::DeadlineExceeded("request expired before scoring")));
      } else {
        live.push_back(std::move(pending));
      }
    }
    if (live.empty()) continue;

    // ONE bundle snapshot per micro-batch: the whole batch scores against
    // a single immutable bundle even if SwapBundle lands mid-batch.
    const std::shared_ptr<const ModelBundle> snapshot = bundle();

    std::vector<ScoreRequest> requests;
    requests.reserve(live.size());
    for (Pending& pending : live) {
      requests.push_back(std::move(pending.request));
    }

    // Whole-batch fault gate: "serve.batch.score" models infrastructure
    // failures that take down an entire scoring pass (as opposed to
    // per-request input errors, which never trip the breaker).
    const Status batch_status =
        DOMD_FAULT_POINT("serve.batch.score").Check();
    if (!batch_status.ok()) {
      // Breaker first, answers second: a caller that sees its failure and
      // immediately resubmits must observe the already-updated state.
      RecordBatchOutcome(/*success=*/false);
      for (Pending& pending : live) {
        completed_error_.fetch_add(1, std::memory_order_relaxed);
        CountOutcome(batch_status.code());
        pending.completion(StatusOr<ServePrediction>(batch_status));
      }
      continue;
    }

    // Timings are recorded around scoring, never fed into it: metrics on
    // or off, ScoreBatch sees byte-identical inputs.
    const bool time_batch =
        metrics_.batch_score_ms != nullptr && obs::Enabled();
    const Clock::time_point score_start =
        time_batch ? Clock::now() : Clock::time_point{};
    std::vector<StatusOr<ServePrediction>> results =
        snapshot->ScoreBatch(requests, options_.parallelism);
    if (time_batch) {
      metrics_.batch_score_ms->Observe(ElapsedMs(score_start, Clock::now()));
      metrics_.batch_size->Observe(static_cast<double>(live.size()));
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(live.size(), std::memory_order_relaxed);
    RecordBatchOutcome(/*success=*/true);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (results[i].ok()) {
        completed_ok_.fetch_add(1, std::memory_order_relaxed);
      } else {
        completed_error_.fetch_add(1, std::memory_order_relaxed);
      }
      CountOutcome(results[i].ok() ? StatusCode::kOk
                                   : results[i].status().code());
      live[i].completion(std::move(results[i]));
    }
  }
}

}  // namespace domd
