#ifndef DOMD_SERVE_PREDICTION_SERVICE_H_
#define DOMD_SERVE_PREDICTION_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/metrics.h"
#include "serve/model_bundle.h"

namespace domd {

/// The hot-swap cell holding the currently published bundle: a
/// mutex-guarded shared_ptr. `load` copies the pointer under the lock (one
/// refcount bump) and `store` replaces it, so a reader always gets one
/// whole bundle and keeps it alive for as long as it holds the copy. The
/// critical sections are a pointer copy, never a scoring call. This is the
/// same cell every build ships, ThreadSanitizer builds included; libstdc++'s
/// std::atomic<std::shared_ptr> would not be lock-free either
/// (is_always_lock_free is false with g++ 12).
class BundleCell {
 public:
  explicit BundleCell(std::shared_ptr<const ModelBundle> bundle)
      : bundle_(std::move(bundle)) {}

  std::shared_ptr<const ModelBundle> load() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bundle_;
  }
  void store(std::shared_ptr<const ModelBundle> bundle) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      bundle_.swap(bundle);
    }
    // `bundle` now holds the replaced one: if that was its last reference,
    // it is destroyed here, outside the lock.
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const ModelBundle> bundle_;
};

/// Tuning knobs of the prediction service.
struct ServeOptions {
  /// Admission-queue bound: requests beyond this are rejected immediately
  /// with kResourceExhausted (explicit backpressure, never unbounded
  /// growth).
  std::size_t max_queue_depth = 256;
  /// Upper bound on requests scored in one micro-batch (one feature-tensor
  /// block). Batching is opportunistic: a batch is whatever queued while
  /// the previous one scored, up to this bound; the batcher never waits
  /// for batch-mates that have not arrived.
  std::size_t max_batch_size = 16;
  /// Parallelism of the per-batch feature-engineering sweep.
  Parallelism parallelism;
  /// Circuit breaker: after this many consecutive whole-batch scoring
  /// failures the service opens and sheds load with kUnavailable instead
  /// of queueing work it cannot serve. 0 disables the breaker entirely.
  /// Per-request errors (bad inputs) never count — only infrastructure
  /// failures that take down an entire batch.
  std::size_t breaker_failure_threshold = 5;
  /// How long the breaker stays open before admitting one half-open probe
  /// batch. A successful probe closes the breaker; a failed one reopens it
  /// for another full interval.
  std::chrono::milliseconds breaker_open_duration{1000};
};

/// Circuit-breaker states (DESIGN.md §10): Closed admits normally; Open
/// sheds every Submit with kUnavailable until the open interval elapses;
/// HalfOpen admits traffic as a probe — the next batch outcome decides
/// between Closed (success) and Open again (failure).
enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

/// Stable lowercase name ("closed" / "open" / "half_open").
const char* BreakerStateToString(BreakerState state);

/// Observability cells of the serving hot path, registered against the
/// default obs::MetricsRegistry (exported by domd_serve's `metrics` wire
/// command as Prometheus text exposition):
///   domd_serve_queue_wait_ms      histogram  Submit -> dequeue wait
///   domd_serve_batch_size         histogram  requests per micro-batch
///   domd_serve_batch_score_ms     histogram  ScoreBatch wall time
///   domd_serve_queue_depth        gauge      instantaneous admission depth
///   domd_serve_requests_total{code=...}  one counter per outcome StatusCode
/// All cells are null when observability is compiled out
/// (-DDOMD_DISABLE_OBS); observation sites also honor the runtime
/// obs::Enabled() flag, and timings never feed scoring state, so enabling
/// or disabling metrics cannot change any prediction bit.
struct ServeMetricCells {
  static constexpr std::size_t kNumStatusCodes =
      static_cast<std::size_t>(StatusCode::kDataLoss) + 1;

  obs::Histogram* queue_wait_ms = nullptr;
  obs::Histogram* batch_size = nullptr;
  obs::Histogram* batch_score_ms = nullptr;
  obs::Gauge* queue_depth = nullptr;
  /// domd_serve_swap_failures_total: hot-swaps that failed to load a new
  /// bundle (the last-known-good bundle kept serving).
  obs::Counter* swap_failures = nullptr;
  /// domd_serve_batch_failures_total: whole-batch scoring failures.
  obs::Counter* batch_failures = nullptr;
  /// domd_serve_breaker_opens_total: Closed/HalfOpen -> Open transitions.
  obs::Counter* breaker_opens = nullptr;
  /// domd_serve_breaker_state: 0 closed, 1 open, 2 half-open.
  obs::Gauge* breaker_state = nullptr;
  std::array<obs::Counter*, kNumStatusCodes> outcomes{};

  /// Registers (or re-finds) every cell; null-celled when compiled out.
  static ServeMetricCells Create();
};

/// Monotonic service counters, exposed for /stats-style observability.
struct ServeStatsSnapshot {
  std::uint64_t submitted = 0;          ///< Submit calls, any outcome.
  std::uint64_t accepted = 0;           ///< admitted to the queue.
  std::uint64_t rejected_overload = 0;  ///< kResourceExhausted rejects.
  std::uint64_t rejected_shutdown = 0;  ///< submitted after Shutdown().
  std::uint64_t expired_deadline = 0;   ///< dead on dequeue.
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_error = 0;    ///< scored but per-request error.
  std::uint64_t batches = 0;            ///< micro-batches scored.
  std::uint64_t batched_requests = 0;   ///< requests across those batches.
  std::uint64_t swaps = 0;              ///< SwapBundle calls.
  std::uint64_t swap_failures = 0;      ///< NoteSwapFailure calls.
  std::uint64_t batch_failures = 0;     ///< whole-batch scoring failures.
  std::uint64_t breaker_opens = 0;      ///< transitions into Open.
  std::uint64_t rejected_breaker = 0;   ///< kUnavailable sheds while Open.
  BreakerState breaker = BreakerState::kClosed;  ///< instantaneous state.
  std::uint64_t queue_depth_hwm = 0;    ///< high-water mark.
  std::uint64_t queue_depth = 0;        ///< instantaneous depth.
  std::string bundle_version;           ///< currently served bundle.
};

/// A long-lived, thread-safe scoring engine over a hot-swappable
/// ModelBundle.
///
/// Concurrency design:
///  - The bundle lives in a BundleCell (a mutex-guarded shared_ptr).
///    `SwapBundle` publishes a new bundle with one store; the batcher
///    takes one snapshot (a pointer copy) per micro-batch, so a
///    whole batch is always scored against exactly one bundle (no torn
///    reads), and in-flight work finishes on the old bundle while new
///    batches pick up the new one — zero downtime.
///  - Admission is bounded: `Submit` either enqueues and returns a future,
///    or completes the future immediately with kResourceExhausted.
///  - A single batcher thread drains the queue in micro-batches of up to
///    max_batch_size: each batch is whatever queued while the previous one
///    scored, taken without waiting for more. Each batch is one
///    ModelBundle::ScoreBatch call (one feature-tensor block on the
///    ParallelFor substrate).
///  - Per-request deadlines are honored at dequeue: an expired request is
///    answered kDeadlineExceeded without being scored.
///  - Shutdown (and the destructor) drains: every accepted request is
///    answered before the batcher exits; later Submits fail fast.
class PredictionService {
 public:
  using Clock = std::chrono::steady_clock;
  /// Completion callback for SubmitAsync. Invoked exactly once per
  /// request: on the caller's thread for immediate rejections (overload,
  /// breaker, shutdown), on the batcher thread otherwise. Must not block
  /// and must not call back into the service.
  using Completion = std::function<void(StatusOr<ServePrediction>)>;

  explicit PredictionService(std::shared_ptr<const ModelBundle> bundle,
                             const ServeOptions& options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Enqueues a request. The returned future is always eventually
  /// satisfied: with a prediction, a per-request scoring error, an
  /// immediate kResourceExhausted on overload, or kDeadlineExceeded when
  /// `deadline` passes before the request is scored.
  std::future<StatusOr<ServePrediction>> Submit(
      ScoreRequest request,
      std::optional<Clock::time_point> deadline = std::nullopt);

  /// Callback flavor of Submit with identical admission semantics —
  /// shutdown, breaker shed, and overload rejections hit the same
  /// counters and status codes, in the same order. `completion` is always
  /// invoked exactly once, never while the service mutex is held. This is
  /// the reactor front-end's path: completions post back to the owning
  /// shard instead of parking a thread on a future.
  void SubmitAsync(ScoreRequest request,
                   std::optional<Clock::time_point> deadline,
                   Completion completion);

  /// Synchronous convenience: Submit + wait.
  StatusOr<ServePrediction> Predict(
      ScoreRequest request,
      std::optional<Clock::time_point> deadline = std::nullopt);

  /// Atomically publishes a new bundle. In-flight batches finish on the
  /// bundle they snapshotted; every later batch scores on `bundle`.
  void SwapBundle(std::shared_ptr<const ModelBundle> bundle);

  /// Records a hot-swap that failed to load its replacement bundle. The
  /// live bundle is untouched — graceful degradation is "keep serving the
  /// last known good" — but the failure is counted in stats and in
  /// domd_serve_swap_failures_total so operators can alert on it.
  void NoteSwapFailure(const Status& status);

  /// Instantaneous circuit-breaker state.
  BreakerState breaker_state() const;

  /// The currently published bundle (one BundleCell snapshot).
  std::shared_ptr<const ModelBundle> bundle() const {
    return bundle_.load();
  }

  /// Counter snapshot (consistent enough for observability; counters are
  /// individually atomic).
  ServeStatsSnapshot stats() const;

  /// Drains the queue (every accepted request is answered), then stops the
  /// batcher. Idempotent; also run by the destructor.
  void Shutdown();

 private:
  struct Pending {
    ScoreRequest request;
    std::optional<Clock::time_point> deadline;
    Completion completion;
    /// Admission timestamp for the queue-wait histogram; unset (epoch)
    /// while metrics are disabled so the hot path skips the clock sample.
    Clock::time_point enqueued{};
  };

  void BatcherLoop();
  /// Bumps domd_serve_requests_total{code=...} for one answered request.
  void CountOutcome(StatusCode code);
  /// Feeds one whole-batch outcome into the breaker state machine.
  /// Requires mutex_ NOT held.
  void RecordBatchOutcome(bool success);
  /// Publishes the breaker gauge. Requires mutex_ held.
  void SetBreakerGaugeLocked();

  const ServeOptions options_;
  BundleCell bundle_;
  const ServeMetricCells metrics_;

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<Pending> queue_;
  bool shutting_down_ = false;
  std::uint64_t queue_depth_hwm_ = 0;
  /// Circuit-breaker cell (guarded by mutex_, like the queue it protects).
  BreakerState breaker_ = BreakerState::kClosed;
  std::size_t consecutive_batch_failures_ = 0;
  Clock::time_point breaker_open_until_{};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> expired_deadline_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> completed_error_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> swap_failures_{0};
  std::atomic<std::uint64_t> batch_failures_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> rejected_breaker_{0};

  std::thread batcher_;  ///< last member: joins before the rest tears down.
};

}  // namespace domd

#endif  // DOMD_SERVE_PREDICTION_SERVICE_H_
