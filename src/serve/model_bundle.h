#ifndef DOMD_SERVE_MODEL_BUNDLE_H_
#define DOMD_SERVE_MODEL_BUNDLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.h"
#include "core/domd_estimator.h"
#include "ingest/data_store.h"

namespace domd {

/// One detached scoring request: the avail row and its RCC stream travel
/// with the request, so the service can score ships that are not part of
/// the bundle's reference fleet. Ids inside a request are caller-local —
/// the scorer remaps them, so concurrent clients can reuse ids freely.
struct ScoreRequest {
  Avail avail;
  std::vector<Rcc> rccs;
  double t_star = 100.0;  ///< logical query time (percent of planned dur.).
  std::size_t top_k = 5;  ///< number of feature-attribution drivers.
};

/// The scoring answer the service returns. The uncertainty band is the
/// spread (min/max) of the per-step timeline estimates entering fusion — a
/// cheap ensemble-dispersion proxy, not a calibrated interval (see
/// examples/uncertainty_bands.cc for the conformal variant).
struct ServePrediction {
  std::int64_t avail_id = 0;
  double t_star = 0.0;
  double estimate_days = 0.0;  ///< fused estimate over steps 0..t*.
  double band_low = 0.0;
  double band_high = 0.0;
  std::size_t num_steps = 0;  ///< timeline steps that contributed.
  std::vector<FeatureContribution> top_features;  ///< at the last step.
  std::string bundle_version;  ///< version tag of the scoring bundle.
};

/// An immutable, versioned serving artifact: the trained `DomdEstimator`
/// stack (per-step models + pipeline config, with the engineered features
/// of its reference fleet) and the pinned snapshot of the fleet it was
/// trained over. A loaded bundle holds exactly what scoring, `data()` and
/// `data_epoch()` read. A bundle is written once by `Write`, loaded whole by
/// `Load`, and never mutated afterwards — every accessor is const and safe
/// to call from any number of threads concurrently (shared-immutable, per
/// DESIGN.md §6).
///
/// On-disk layout (directory):
///   MANIFEST    "domd_bundle v2", version tag, schema hash
///               (FeatureCatalogVersion), cardinalities, one FNV-1a
///               checksum per payload file
///   models.txt  TimelineModelSet text serialization (config included)
///   avails.csv  reference fleet avail table
///   rccs.csv    reference fleet RCC table
///
/// Publication is crash-safe: `Write` stages the bundle in `<dir>.tmp`,
/// fsyncs every file and the staging directory, and atomically renames it
/// into place. `Load` verifies every checksum before parsing a byte, so a
/// torn or bit-flipped artifact is rejected as kDataLoss rather than
/// half-served. Any manifest other than a complete v2 one is refused.
class ModelBundle {
 public:
  /// Writes `estimator` (trained over `data`) as a bundle directory.
  /// `version` must be a non-empty whitespace-free tag (e.g. "v7" or a
  /// content hash); it comes back verbatim in every prediction.
  static Status Write(const DomdEstimator& estimator, const Dataset& data,
                      const std::string& dir, const std::string& version);

  /// Loads a bundle directory: manifest + schema-compatibility check,
  /// reference tables and model stack (features for the reference fleet
  /// come from the modeling-view cache, honoring `parallelism` and
  /// `cache_bytes`). Returns a shared_ptr because serving hot-swaps
  /// bundles behind a shared_ptr cell (BundleCell); the pointee is deeply
  /// const. Hot-swapping to a bundle whose reference tables are
  /// content-identical to the live one reuses the live view snapshot
  /// instead of re-engineering features.
  static StatusOr<std::shared_ptr<const ModelBundle>> Load(
      const std::string& dir, const Parallelism& parallelism = {},
      std::size_t cache_bytes = kDefaultViewCacheBytes);

  const std::string& version() const { return version_; }
  std::uint64_t schema_hash() const { return schema_hash_; }
  const std::string& directory() const { return directory_; }
  const Dataset& data() const { return snapshot_->data(); }
  /// The epoch of the pinned reference-fleet snapshot: its dataset
  /// fingerprint, so a freshness probe knows exactly which data generation
  /// this bundle embeds.
  std::uint64_t data_epoch() const { return snapshot_->epoch(); }
  const DomdEstimator& estimator() const { return *estimator_; }
  const PipelineConfig& config() const { return estimator_->config(); }
  const std::vector<double>& grid() const { return estimator_->grid(); }

  /// Scores one avail of the bundle's reference fleet by id.
  StatusOr<ServePrediction> ScoreReferenceAvail(std::int64_t avail_id,
                                                double t_star,
                                                std::size_t top_k = 5) const;

  /// Scores a micro-batch of detached requests: validates each request,
  /// assembles the valid ones into one temporary dataset (ids remapped),
  /// engineers a single feature-tensor block over the bundle's grid on the
  /// ParallelFor substrate, and evaluates the per-step models. Failures
  /// are per-request — slot i of the result always answers request i.
  std::vector<StatusOr<ServePrediction>> ScoreBatch(
      const std::vector<ScoreRequest>& requests,
      const Parallelism& parallelism = {}) const;

  ModelBundle(const ModelBundle&) = delete;
  ModelBundle& operator=(const ModelBundle&) = delete;

 private:
  ModelBundle() = default;

  /// The per-row tail both scorers share: fuses the step estimates
  /// `per_step` (steps 0..per_step.size()-1), takes their min/max band,
  /// and attributes the last step's input at `row` of `view`.
  ServePrediction FinishPrediction(std::int64_t avail_id, double t_star,
                                   const ModelingView& view, std::size_t row,
                                   const std::vector<double>& per_step,
                                   std::size_t top_k) const;

  std::string version_;
  std::uint64_t schema_hash_ = 0;
  std::string directory_;
  /// The epoch-stamped cut of the reference fleet every accessor serves
  /// from (address-stable target of the estimator's back-pointer). `Load`
  /// cuts it from a DataStore, so the bundle reads through the same path as
  /// every other pipeline consumer (DESIGN.md §14).
  std::shared_ptr<const DataSnapshot> snapshot_;
  std::unique_ptr<DomdEstimator> estimator_;
};

/// Crash-safe bundle distribution: copies the published bundle at
/// `src_dir` into `dest_dir` through the same staging protocol as
/// `ModelBundle::Write`. The manifest goes through the same reader as
/// `Load`, every payload file is read (serve.bundle.read) and verified
/// against its checksum before anything is written, then all are staged
/// durably into `dest_dir.tmp` (serve.bundle.write) and atomically renamed
/// into place (serve.bundle.commit). This is the per-shard "stage" step of a
/// coordinated cluster rollout: a crash or injected fault mid-copy leaves
/// the destination untouched, so the shard keeps serving last-known-good.
Status CopyBundleDurable(const std::string& src_dir,
                         const std::string& dest_dir);

/// `ModelBundle::Load` wrapped in bounded retry-with-backoff: transient
/// failures (kIoError, kUnavailable, kResourceExhausted) are retried per
/// `retry`; permanent ones (kDataLoss, kFailedPrecondition, ...) return
/// immediately. This is the entry point serving uses for initial load and
/// hot-swap, so a flaky filesystem read does not kill an otherwise healthy
/// swap — while a corrupt artifact still fails fast.
StatusOr<std::shared_ptr<const ModelBundle>> LoadBundleWithRetry(
    const std::string& dir, const Parallelism& parallelism = {},
    std::size_t cache_bytes = kDefaultViewCacheBytes,
    const RetryOptions& retry = {});

}  // namespace domd

#endif  // DOMD_SERVE_MODEL_BUNDLE_H_
