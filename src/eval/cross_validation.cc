#include "eval/cross_validation.h"

#include <algorithm>
#include <cmath>

#include "cache/view_cache.h"
#include "common/rng.h"
#include "common/stats.h"
#include "data/logical_time.h"
#include "ingest/data_store.h"
#include "obs/trace.h"

namespace domd {

StatusOr<CvResult> CrossValidate(const Dataset& data,
                                 const PipelineConfig& config,
                                 const CvOptions& options) {
  if (options.num_folds < 2) {
    return Status::InvalidArgument("cross-validation needs >= 2 folds");
  }
  std::vector<std::int64_t> ids;
  for (const Avail& avail : data.avails.rows()) {
    if (avail.delay().has_value()) ids.push_back(avail.id);
  }
  if (ids.size() < static_cast<std::size_t>(options.num_folds)) {
    return Status::FailedPrecondition(
        "fewer labeled avails than folds");
  }
  Rng rng(options.seed);
  rng.Shuffle(&ids);

  // Engineer the full tensor once; folds are row subsets. The snapshot
  // comes from the modeling-view cache, so repeated CV over the same
  // dataset/split/grid (HPT trials, fusion sweeps) reuses one build.
  FeatureEngineer engineer(&data);
  const std::vector<double> grid = LogicalTimeGrid(options.window_width_pct);
  const std::shared_ptr<const ModelingView> full_view = BuildModelingViewShared(
      data, engineer, ids, grid, config.parallelism, config.cache_bytes);
  const ModelingView& full = *full_view;
  std::vector<std::string> names;
  names.reserve(engineer.catalog().size());
  for (const FeatureDef& def : engineer.catalog().features()) {
    names.push_back(def.name);
  }

  auto subset_view = [&](const std::vector<std::size_t>& rows) {
    ModelingView view;
    view.avail_ids.reserve(rows.size());
    view.labels.reserve(rows.size());
    for (std::size_t r : rows) {
      view.avail_ids.push_back(full.avail_ids[r]);
      view.labels.push_back(full.labels[r]);
    }
    view.static_x = full.static_x.SelectRows(rows);
    auto dynamic = full.dynamic.SelectAvails(view.avail_ids);
    view.dynamic = std::move(*dynamic);
    return view;
  };

  CvResult result;
  const std::size_t n = ids.size();
  const auto num_folds = static_cast<std::size_t>(options.num_folds);

  // Folds are independent given the shared tensor: run them in parallel,
  // each writing only its own slot, then aggregate serially in fold order —
  // bit-identical to the serial loop for every thread count.
  std::vector<FoldResult> fold_results(num_folds);
  std::vector<Status> fold_status(num_folds, Status::OK());
  const int threads = std::min(config.parallelism.EffectiveThreads(),
                               options.num_folds);
  DOMD_RETURN_IF_ERROR(ParallelFor(
      threads, num_folds, 1,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t fold = lo; fold < hi; ++fold) {
          DOMD_OBS_SPAN("cv.fold");  // concurrent observes are lock-free
          std::vector<std::size_t> train_rows, test_rows;
          for (std::size_t i = 0; i < n; ++i) {
            if (i % num_folds == fold) {
              test_rows.push_back(i);
            } else {
              train_rows.push_back(i);
            }
          }
          const ModelingView train = subset_view(train_rows);
          const ModelingView test = subset_view(test_rows);

          TimelineModelSet models;
          fold_status[fold] = models.Fit(config, train, names);
          if (!fold_status[fold].ok()) continue;
          const std::vector<double> fused = models.PredictFused(
              test, grid.size() - 1, config.fusion);

          fold_results[fold].held_out_ids = test.avail_ids;
          fold_results[fold].metrics = ComputeEvalMetrics(test.labels, fused);
        }
        return Status::OK();
      }));
  for (const Status& status : fold_status) DOMD_RETURN_IF_ERROR(status);

  std::vector<double> fold_mae;
  EvalMetrics sums;
  for (FoldResult& fold_result : fold_results) {
    fold_mae.push_back(fold_result.metrics.mae100);
    sums.mae80 += fold_result.metrics.mae80;
    sums.mae90 += fold_result.metrics.mae90;
    sums.mae100 += fold_result.metrics.mae100;
    sums.mse += fold_result.metrics.mse;
    sums.rmse += fold_result.metrics.rmse;
    sums.r2 += fold_result.metrics.r2;
    result.folds.push_back(std::move(fold_result));
  }

  const double k = static_cast<double>(options.num_folds);
  result.mean.mae80 = sums.mae80 / k;
  result.mean.mae90 = sums.mae90 / k;
  result.mean.mae100 = sums.mae100 / k;
  result.mean.mse = sums.mse / k;
  result.mean.rmse = sums.rmse / k;
  result.mean.r2 = sums.r2 / k;
  result.mae_stddev = StdDev(fold_mae);
  return result;
}

StatusOr<CvResult> CrossValidate(
    const std::shared_ptr<const DataSnapshot>& snapshot,
    const PipelineConfig& config, const CvOptions& options) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("CrossValidate: null snapshot");
  }
  return CrossValidate(snapshot->data(), config, options);
}

BootstrapInterval BootstrapMaeInterval(const std::vector<double>& y_true,
                                       const std::vector<double>& y_pred,
                                       int resamples, double confidence,
                                       std::uint64_t seed) {
  BootstrapInterval interval;
  const std::size_t n = std::min(y_true.size(), y_pred.size());
  interval.point = MeanAbsoluteError(y_true, y_pred);
  if (n < 2 || resamples < 10) {
    interval.lower = interval.upper = interval.point;
    return interval;
  }
  Rng rng(seed);
  std::vector<double> maes(static_cast<std::size_t>(resamples));
  for (double& mae : maes) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
      sum += std::fabs(y_true[pick] - y_pred[pick]);
    }
    mae = sum / static_cast<double>(n);
  }
  const double tail = (1.0 - confidence) / 2.0;
  interval.lower = Quantile(maes, tail);
  interval.upper = Quantile(maes, 1.0 - tail);
  return interval;
}

}  // namespace domd
