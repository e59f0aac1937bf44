// domd — command-line front end to the DoMD estimation framework.
//
//   domd generate  --dir DATA [--avails N] [--rccs-per-avail M]
//                  [--ongoing F] [--seed S]
//   domd obfuscate --dir DATA --out DIR [--seed S]
//   domd stats     --dir DATA
//   domd train     --dir DATA --model FILE [--window X] [--k K]
//                  [--rounds R] [--seed S] [--threads N]
//                  [--gbt-layout row|columnar] [--quantized-hist 0|1]
//                  [--bundle DIR [--bundle-version V]]
//   domd tune      --dir DATA [--trials N] [--patience P] [--seed S]
//                  [--window X] [--k K] [--threads N]
//                  [--gbt-layout row|columnar] [--quantized-hist 0|1]
//   domd evaluate  --dir DATA --model FILE [--threads N]
//   domd query     --dir DATA --model FILE --avail ID [--t T*] [--top K]
//                  [--threads N]
//   domd predict   --bundle DIR (--avail ID [--t T*] [--top K] |
//                  --request FILE) [--threads N]
//   domd sql       --dir DATA --query "SELECT ... AT <t*>"
//   domd report    --dir DATA --model FILE [--out FILE] [--t T*]
//                  [--threads N]
//   domd ingest    --dir DATA [--mutations FILE] [--merge 1]
//
// `ingest` appends avail/RCC mutations to DATA/ingest.log — the
// crash-safe, fsync'd append-only log every other subcommand replays on
// open (DESIGN.md §14). --mutations FILE is newline-delimited JSON, one
// {"avails": [...], "rccs": [...]} object per line in the server's ingest
// wire schema. --merge 1 compacts log + base into fresh avails.csv /
// rccs.csv afterwards (durably) and rotates the log down to any records
// that arrived after the merge cut; without it the mutations stay pending
// and every reader applies them on top of the base.
//
// DATA directories hold avails.csv and rccs.csv in the library's CSV
// schema. Model files are written by `train` (DomdEstimator::SaveModels).
// Bundle directories are serving artifacts written by `train --bundle`
// (ModelBundle::Write); `predict` and `domd_serve` load them through the
// same ModelBundle::Load path, so the CLI and the server can never drift
// apart on the artifact format.
//
// --threads N sets the worker count for feature engineering, the
// timeline's per-step model fits (each tree grows serially), and
// cross-validation folds (0 = one per hardware thread, the default).
// Results are bit-identical for every N; the knob only trades wall-clock.
//
// --cache-bytes B (train/tune/evaluate/query/predict/report) budgets the
// process-wide modeling-view cache; 0 disables caching. Like --threads, it
// never changes a single output bit — only how often feature engineering
// reruns.
//
// --gbt-layout row|columnar (train/tune) picks the GBT training scan:
// "columnar" (the default) sorts each input column once per fit and trains
// over those columns (DESIGN.md §13), "row" is the legacy per-node
// sort-and-scan reference.
// Both layouts produce byte-identical model files; the flag only trades
// wall-clock, and it is never written into a model or bundle.
// --quantized-hist 1 additionally enables the opt-in quantized-histogram
// fast path, which may pick split thresholds from bin boundaries — fast
// but NOT guaranteed bit-identical to the exact scan; it is off by
// default for exactly that reason.
//
// --metrics-json FILE (any command) dumps the run's metric registry as
// JSON on exit: pipeline span histograms (features.block_sweep, gbt.fit,
// gbt.split_search, cv.fold, hpt.trial) plus any counters/gauges the
// command touched. Purely observational — it never changes results.
//
// --fault-spec "point=policy,..." (any command; also the DOMD_FAULT_SPEC
// environment variable) arms deterministic fault injection at the named
// fault points (DESIGN.md §10) — chaos-testing only, off by default.
// Builds with -DDOMD_DISABLE_FAULTS refuse the flag.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <fstream>

#include "cache/view_cache.h"
#include "common/flags.h"
#include "core/domd_estimator.h"
#include "ingest/data_store.h"
#include "core/pipeline_optimizer.h"
#include "data/logical_time.h"
#include "data/integrity.h"
#include "obs/metrics.h"
#include "serve/wire.h"
#include "data/splits.h"
#include "ml/metrics.h"
#include "query/query_parser.h"
#include "report/report_writer.h"
#include "obfuscate/obfuscator.h"
#include "synth/generator.h"

namespace domd {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Writes the default metric registry as JSON. Surfaces every counter,
/// gauge, and histogram the command populated — notably the
/// domd_span_duration_ms series from the pipeline trace spans.
int DumpMetricsJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Fail(Status::IoError("cannot write metrics to " + path));
  }
  out << obs::MetricsRegistry::Default().RenderJson() << '\n';
  if (!out.good()) {
    return Fail(Status::IoError("short write dumping metrics to " + path));
  }
  std::printf("metrics written to %s\n", path.c_str());
  return 0;
}

// --threads N; N = 0 (the default) resolves to hardware_concurrency.
Parallelism ThreadsFlag(const Flags& flags) {
  return Parallelism{IntFlag<int>(flags, "threads", 0, 0)};
}

// --gbt-layout row|columnar and --quantized-hist 0|1; runtime GBT
// training knobs (DESIGN.md §13), never serialized into models.
Status ApplyGbtLayoutFlags(const Flags& flags, PipelineConfig* config) {
  const std::string layout = FlagOr(flags, "gbt-layout", "columnar");
  if (layout == "row") {
    config->gbt.tree.layout = TreeLayout::kRowMajor;
  } else if (layout == "columnar") {
    config->gbt.tree.layout = TreeLayout::kColumnar;
  } else {
    return Status::InvalidArgument("--gbt-layout must be \"row\" or "
                                   "\"columnar\", got \"" + layout + "\"");
  }
  config->gbt.tree.quantized =
      IntFlag<int>(flags, "quantized-hist", 0, 0, 1) != 0;
  return Status::OK();
}

// --cache-bytes B; byte budget of the modeling-view cache (0 disables).
std::size_t CacheBytesFlag(const Flags& flags) {
  return IntFlag<std::size_t>(flags, "cache-bytes", kDefaultViewCacheBytes);
}

/// Every subcommand reads --dir through a DataStore snapshot (DESIGN.md
/// §14): the pinned, epoch-stamped cut of avails.csv + rccs.csv overlaid
/// with any mutations still pending in dir/ingest.log from `domd ingest`.
struct StoreHandle {
  std::unique_ptr<DataStore> store;
  std::shared_ptr<const DataSnapshot> snapshot;
  const Dataset& data() const { return snapshot->data(); }
};

StatusOr<StoreHandle> OpenStore(const Flags& flags, bool for_ingest = false) {
  const auto it = flags.find("dir");
  if (it == flags.end()) {
    return Status::InvalidArgument("--dir is required");
  }
  DataStoreOptions options;
  // Read-only commands replay an existing log but never create one.
  options.adopt_existing_log_only = !for_ingest;
  auto store = DataStore::OpenDir(it->second, std::move(options));
  if (!store.ok()) return store.status();
  StoreHandle handle;
  handle.store = std::move(*store);
  handle.snapshot = handle.store->Snapshot();

  // Refuse corrupt datasets up front; surface warnings.
  const IntegrityReport report = CheckDatasetIntegrity(handle.data());
  if (!report.ok()) {
    std::string first;
    for (const auto& issue : report.issues) {
      if (first.empty()) {
        first = std::string(IntegrityIssueKindToString(issue.kind)) + " (" +
                issue.detail + ")";
      }
    }
    return Status::FailedPrecondition(
        "dataset failed integrity check: " +
        std::to_string(report.num_errors) + " errors, first: " + first);
  }
  if (report.num_warnings > 0) {
    std::fprintf(stderr, "warning: %zu integrity warnings in %s\n",
                 report.num_warnings, it->second.c_str());
  }
  return handle;
}

int CmdGenerate(const Flags& flags) {
  SynthConfig config;
  config.num_avails = IntFlag<int>(flags, "avails", 200, 0);
  config.mean_rccs_per_avail = DoubleFlag(flags, "rccs-per-avail", 240);
  config.ongoing_fraction = DoubleFlag(flags, "ongoing", 0.05);
  config.seed = IntFlag<std::uint64_t>(flags, "seed", 42);
  const std::string dir = FlagOr(flags, "dir", ".");

  const Dataset data = GenerateDataset(config);
  if (auto s = data.avails.WriteFile(dir + "/avails.csv"); !s.ok()) {
    return Fail(s);
  }
  if (auto s = data.rccs.WriteFile(dir + "/rccs.csv"); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %zu avails and %zu RCCs to %s\n", data.avails.size(),
              data.rccs.size(), dir.c_str());
  return 0;
}

int CmdObfuscate(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const auto out_it = flags.find("out");
  if (out_it == flags.end()) {
    return Fail(Status::InvalidArgument("--out is required"));
  }
  ObfuscationConfig config;
  config.seed = IntFlag<std::uint64_t>(flags, "seed", 53391);
  Obfuscator obfuscator(config);
  const Dataset masked = obfuscator.Obfuscate(store->data());
  if (auto s = masked.avails.WriteFile(out_it->second + "/avails.csv");
      !s.ok()) {
    return Fail(s);
  }
  if (auto s = masked.rccs.WriteFile(out_it->second + "/rccs.csv"); !s.ok()) {
    return Fail(s);
  }
  std::printf("obfuscated dataset written to %s\n", out_it->second.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const Dataset& data = store->data();
  std::size_t closed = 0, ongoing = 0;
  std::vector<double> delays;
  for (const Avail& a : data.avails.rows()) {
    if (a.status == AvailStatus::kClosed) {
      ++closed;
      delays.push_back(static_cast<double>(*a.delay()));
    } else {
      ++ongoing;
    }
  }
  std::printf("avails:   %zu (%zu closed, %zu ongoing)\n",
              data.avails.size(), closed, ongoing);
  std::printf("RCCs:     %zu\n", data.rccs.size());
  std::printf("epoch:    %016llx (%zu pending ingest mutations)\n",
              static_cast<unsigned long long>(store->snapshot->epoch()),
              store->snapshot->delta_depth());
  if (!delays.empty()) {
    double sum = 0, max_delay = delays[0], min_delay = delays[0];
    for (double d : delays) {
      sum += d;
      max_delay = std::max(max_delay, d);
      min_delay = std::min(min_delay, d);
    }
    std::printf("delay:    mean %.1f, min %.0f, max %.0f days\n",
                sum / static_cast<double>(delays.size()), min_delay,
                max_delay);
  }
  return 0;
}

// Builds the paper's split and trains; shared by train/evaluate.
struct TrainedContext {
  Dataset data;
  DataSplit split;
};

int CmdTrain(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const Dataset& data = store->data();
  const auto model_it = flags.find("model");
  if (model_it == flags.end()) {
    return Fail(Status::InvalidArgument("--model is required"));
  }

  PipelineConfig config;
  config.window_width_pct = DoubleFlag(flags, "window", 10);
  config.num_features = IntFlag<std::size_t>(flags, "k", 60);
  config.gbt.num_rounds = IntFlag<int>(flags, "rounds", 150, 0);
  config.seed = IntFlag<std::uint64_t>(flags, "seed", 42);
  config.parallelism = ThreadsFlag(flags);
  config.cache_bytes = CacheBytesFlag(flags);
  if (auto s = ApplyGbtLayoutFlags(flags, &config); !s.ok()) return Fail(s);

  Rng rng(config.seed + 1);
  const DataSplit split = *MakeSplit(data.avails, SplitOptions{}, &rng);
  std::printf("split: %zu train / %zu validation / %zu test\n",
              split.train.size(), split.validation.size(),
              split.test.size());
  std::printf("pipeline: %s\n", config.ToString().c_str());

  auto estimator =
      DomdEstimator::Train(store->snapshot, config, split.train);
  if (!estimator.ok()) return Fail(estimator.status());
  if (auto s = estimator->SaveModels(model_it->second); !s.ok()) {
    return Fail(s);
  }
  std::printf("model written to %s\n", model_it->second.c_str());

  // Optional serving artifact: models + reference fleet + frozen indexes.
  if (const auto bundle_it = flags.find("bundle"); bundle_it != flags.end()) {
    const std::string version = FlagOr(flags, "bundle-version", "v1");
    if (auto s = ModelBundle::Write(*estimator, data, bundle_it->second,
                                    version);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("bundle %s written to %s\n", version.c_str(),
                bundle_it->second.c_str());
  }

  // Quick test-set check.
  std::vector<double> truth, predicted;
  for (std::int64_t id : split.test) {
    const auto result = estimator->QueryAtLogicalTime(id, 100.0);
    if (!result.ok()) continue;
    truth.push_back(static_cast<double>(*(*data.avails.Find(id))->delay()));
    predicted.push_back(result->fused_estimate_days);
  }
  const EvalMetrics metrics = ComputeEvalMetrics(truth, predicted);
  std::printf("test: MAE80 %.2f  MAE100 %.2f  RMSE %.2f  R2 %.2f\n",
              metrics.mae80, metrics.mae100, metrics.rmse, metrics.r2);
  return 0;
}

// AutoHPT from the command line: TPE search over the GBT space, trial
// objective = mean validation MAE of the full timeline. Every trial
// re-requests the train/validation views through the modeling-view cache,
// so trial 2..N skip feature engineering entirely (watch the hit ratio the
// command prints, or pass --cache-bytes 0 to feel the difference).
int CmdTune(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const Dataset& data = store->data();

  PipelineConfig config;
  config.window_width_pct = DoubleFlag(flags, "window", 10);
  config.num_features = IntFlag<std::size_t>(flags, "k", 60);
  config.seed = IntFlag<std::uint64_t>(flags, "seed", 42);
  config.parallelism = ThreadsFlag(flags);
  config.cache_bytes = CacheBytesFlag(flags);
  if (auto s = ApplyGbtLayoutFlags(flags, &config); !s.ok()) return Fail(s);

  Rng rng(config.seed + 1);
  const DataSplit split = *MakeSplit(data.avails, SplitOptions{}, &rng);
  const std::vector<double> grid = LogicalTimeGrid(config.window_width_pct);
  const FeatureEngineer engineer(&data);
  std::vector<std::string> names;
  names.reserve(engineer.catalog().size());
  for (const FeatureDef& def : engineer.catalog().features()) {
    names.push_back(def.name);
  }

  const ParamSpace space = PipelineOptimizer::GbtSearchSpace();
  const auto objective = [&](const ParamMap& map) {
    // Deliberately inside the trial: cache hit after the first trial.
    const auto train = BuildModelingViewShared(
        data, engineer, split.train, grid, config.parallelism,
        config.cache_bytes);
    const auto validation = BuildModelingViewShared(
        data, engineer, split.validation, grid, config.parallelism,
        config.cache_bytes);
    PipelineConfig candidate = config;
    PipelineOptimizer::ApplyGbtParams(map, &candidate.gbt);
    candidate.fusion = FusionMethod::kNone;
    TimelineModelSet models;
    if (!models.Fit(candidate, *train, names).ok()) {
      return std::numeric_limits<double>::infinity();
    }
    return TimelineValidationMae(models, *validation, candidate.fusion);
  };

  TunerOptions tuner_options;
  tuner_options.num_trials = IntFlag<int>(flags, "trials", 30, 0);
  tuner_options.patience = IntFlag<int>(flags, "patience", 0, 0);
  tuner_options.seed = config.seed + 1;
  Tuner tuner(&space, TpeOptions{});
  const TuningResult result = tuner.Run(objective, tuner_options);

  std::printf("ran %zu trials; best validation MAE %.4f\n",
              result.trials.size(), result.best_objective);
  for (const auto& [name, value] : result.best_map) {
    std::printf("  %-18s %.6g\n", name.c_str(), value);
  }
  const ViewCacheStats stats = ViewCache::Default().Stats();
  std::printf("view cache: %zu hits / %zu misses (hit ratio %.2f), "
              "%zu bytes live\n",
              stats.hits, stats.misses, stats.HitRatio(), stats.bytes);
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const auto model_it = flags.find("model");
  if (model_it == flags.end()) {
    return Fail(Status::InvalidArgument("--model is required"));
  }
  auto estimator = DomdEstimator::LoadModels(store->snapshot,
                                             model_it->second,
                                             ThreadsFlag(flags),
                                             CacheBytesFlag(flags));
  if (!estimator.ok()) return Fail(estimator.status());

  // Table-7-style panel over every closed avail.
  std::printf("%-10s %9s %9s %9s %10s %9s %7s\n", "t*(%)", "MAE80", "MAE90",
              "MAE100", "MSE", "RMSE", "R2");
  for (double t : estimator->grid()) {
    std::vector<double> truth, predicted;
    for (const Avail& avail : store->data().avails.rows()) {
      if (!avail.delay().has_value()) continue;
      const auto result = estimator->QueryAtLogicalTime(avail.id, t);
      if (!result.ok()) continue;
      truth.push_back(static_cast<double>(*avail.delay()));
      predicted.push_back(result->fused_estimate_days);
    }
    const EvalMetrics m = ComputeEvalMetrics(truth, predicted);
    std::printf("%-10.0f %9.2f %9.2f %9.2f %10.2f %9.2f %7.2f\n", t, m.mae80,
                m.mae90, m.mae100, m.mse, m.rmse, m.r2);
  }
  return 0;
}

int CmdQuery(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const auto model_it = flags.find("model");
  const auto avail_it = flags.find("avail");
  if (model_it == flags.end() || avail_it == flags.end()) {
    return Fail(Status::InvalidArgument("--model and --avail are required"));
  }
  auto estimator = DomdEstimator::LoadModels(store->snapshot,
                                             model_it->second,
                                             ThreadsFlag(flags),
                                             CacheBytesFlag(flags));
  if (!estimator.ok()) return Fail(estimator.status());

  const auto avail_id = IntFlag<std::int64_t>(flags, "avail", 0);
  const double t_star = DoubleFlag(flags, "t", 100);
  const auto top_k = IntFlag<std::size_t>(flags, "top", 5);
  const auto result =
      estimator->QueryAtLogicalTime(avail_id, t_star, top_k);
  if (!result.ok()) return Fail(result.status());

  std::printf("avail %lld at t* = %.1f%%\n",
              static_cast<long long>(avail_id), t_star);
  for (const auto& step : result->steps) {
    std::printf("  t* = %5.1f%%  estimate %8.1f days\n", step.t_star,
                step.estimated_delay_days);
  }
  std::printf("fused estimate: %.1f days\n", result->fused_estimate_days);
  std::printf("top drivers at t* = %.0f%%:\n", result->steps.back().t_star);
  for (const auto& feature : result->steps.back().top_features) {
    std::printf("  %-32s %+8.2f days\n", feature.feature_name.c_str(),
                feature.contribution);
  }
  return 0;
}

// `predict` loads a serving bundle — the same artifact and loader
// `domd_serve` uses — and scores either one reference-fleet avail
// (human-readable output) or a file of JSON request lines in the server's
// wire format (one JSON response per line on stdout).
int CmdPredict(const Flags& flags) {
  const auto bundle_it = flags.find("bundle");
  if (bundle_it == flags.end()) {
    return Fail(Status::InvalidArgument("--bundle is required"));
  }
  auto bundle = ModelBundle::Load(bundle_it->second, ThreadsFlag(flags),
                                  CacheBytesFlag(flags));
  if (!bundle.ok()) return Fail(bundle.status());

  if (const auto request_it = flags.find("request");
      request_it != flags.end()) {
    std::ifstream in(request_it->second);
    if (!in) {
      return Fail(Status::IoError("cannot open " + request_it->second));
    }
    std::string line;
    int failures = 0;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      auto request = JsonValue::Parse(line);
      if (!request.ok()) {
        std::printf("%s\n",
                    ErrorToJson(request.status()).Serialize().c_str());
        ++failures;
        continue;
      }
      // Reference-fleet form, same wire semantics as domd_serve:
      // {"avail_id": N, "t_star": T, "top_k": K}.
      if (const JsonValue* avail_id = request->Find("avail_id");
          avail_id != nullptr && avail_id->is_number()) {
        const auto id = avail_id->AsInteger<std::int64_t>("avail_id");
        const auto top_k = request->Integer<std::size_t>("top_k", 5);
        const auto result =
            !id.ok()      ? StatusOr<ServePrediction>(id.status())
            : !top_k.ok() ? StatusOr<ServePrediction>(top_k.status())
                          : (*bundle)->ScoreReferenceAvail(
                                *id, request->NumberOr("t_star", 100.0),
                                *top_k);
        if (!result.ok()) {
          std::printf("%s\n",
                      ErrorToJson(result.status()).Serialize().c_str());
          ++failures;
        } else {
          std::printf("%s\n",
                      PredictionToJson(*result, 0.0).Serialize().c_str());
        }
        continue;
      }
      auto score = ParseScoreRequest(*request);
      if (!score.ok()) {
        std::printf("%s\n", ErrorToJson(score.status()).Serialize().c_str());
        ++failures;
        continue;
      }
      const auto results = (*bundle)->ScoreBatch({*score});
      if (!results[0].ok()) {
        std::printf("%s\n",
                    ErrorToJson(results[0].status()).Serialize().c_str());
        ++failures;
        continue;
      }
      std::printf("%s\n",
                  PredictionToJson(*results[0], 0.0).Serialize().c_str());
    }
    return failures == 0 ? 0 : 1;
  }

  const auto avail_it = flags.find("avail");
  if (avail_it == flags.end()) {
    return Fail(Status::InvalidArgument("--avail or --request is required"));
  }
  const auto avail_id = IntFlag<std::int64_t>(flags, "avail", 0);
  const double t_star = DoubleFlag(flags, "t", 100);
  const auto top_k = IntFlag<std::size_t>(flags, "top", 5);
  const auto result =
      (*bundle)->ScoreReferenceAvail(avail_id, t_star, top_k);
  if (!result.ok()) return Fail(result.status());

  std::printf("bundle %s (version %s)\n", bundle_it->second.c_str(),
              result->bundle_version.c_str());
  std::printf("avail %lld at t* = %.1f%%: %.1f days "
              "(band %.1f .. %.1f over %zu steps)\n",
              static_cast<long long>(avail_id), t_star,
              result->estimate_days, result->band_low, result->band_high,
              result->num_steps);
  std::printf("top drivers:\n");
  for (const auto& feature : result->top_features) {
    std::printf("  %-32s %+8.2f days\n", feature.feature_name.c_str(),
                feature.contribution);
  }
  return 0;
}

int CmdSql(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const auto query_it = flags.find("query");
  if (query_it == flags.end()) {
    return Fail(Status::InvalidArgument("--query is required"));
  }
  const auto parsed = ParseStatusQuery(query_it->second);
  if (!parsed.ok()) return Fail(parsed.status());

  StatusQueryEngine engine(&store->data(), IndexBackend::kAvlTree);
  if (parsed->group_by.has_value()) {
    const auto rows =
        engine.ExecuteGroupBy(parsed->query, parsed->t_star,
                              *parsed->group_by);
    if (!rows.ok()) return Fail(rows.status());
    for (const GroupedRow& row : *rows) {
      std::string key;
      if (row.type.has_value()) key += RccTypeToCode(*row.type);
      if (row.swlin_prefix >= 0) {
        if (!key.empty()) key += "/";
        key += std::to_string(row.swlin_prefix);
      }
      std::printf("%-8s %14.4f\n", key.c_str(), row.value);
    }
    return 0;
  }
  const auto value = engine.Execute(parsed->query, parsed->t_star);
  if (!value.ok()) return Fail(value.status());
  std::printf("%s\n  = %.4f\n",
              FormatStatusQuery(parsed->query, parsed->t_star).c_str(),
              *value);
  return 0;
}

int CmdReport(const Flags& flags) {
  auto store = OpenStore(flags);
  if (!store.ok()) return Fail(store.status());
  const auto model_it = flags.find("model");
  if (model_it == flags.end()) {
    return Fail(Status::InvalidArgument("--model is required"));
  }
  auto estimator = DomdEstimator::LoadModels(store->snapshot,
                                             model_it->second,
                                             ThreadsFlag(flags),
                                             CacheBytesFlag(flags));
  if (!estimator.ok()) return Fail(estimator.status());

  ReportOptions options;
  options.query_t_star = DoubleFlag(flags, "t", 60);
  ReportWriter writer(options);
  const auto report = writer.FleetReport(store->data(), *estimator);
  if (!report.ok()) return Fail(report.status());

  const auto out_it = flags.find("out");
  if (out_it == flags.end()) {
    std::printf("%s", report->c_str());
    return 0;
  }
  std::FILE* file = std::fopen(out_it->second.c_str(), "w");
  if (file == nullptr) {
    return Fail(Status::IoError("cannot open " + out_it->second));
  }
  std::fputs(report->c_str(), file);
  std::fclose(file);
  std::printf("report written to %s\n", out_it->second.c_str());
  return 0;
}

// `ingest` is the batch producer of the streaming path: it validates,
// durably logs and applies mutations through the same DataStore every
// reader opens, so a crash between append and merge never loses an
// accepted record (replay on next open reproduces it).
int CmdIngest(const Flags& flags) {
  auto store = OpenStore(flags, /*for_ingest=*/true);
  if (!store.ok()) return Fail(store.status());

  std::size_t applied = 0;
  if (const auto mutations_it = flags.find("mutations");
      mutations_it != flags.end()) {
    std::ifstream in(mutations_it->second);
    if (!in) {
      return Fail(Status::IoError("cannot open " + mutations_it->second));
    }
    std::vector<IngestMutation> batch;
    std::string line;
    while (std::getline(in, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      auto request = JsonValue::Parse(line);
      if (!request.ok()) return Fail(request.status());
      auto mutations = ParseIngestMutations(*request);
      if (!mutations.ok()) return Fail(mutations.status());
      for (IngestMutation& mutation : *mutations) {
        batch.push_back(std::move(mutation));
      }
    }
    if (batch.empty()) {
      return Fail(Status::InvalidArgument(mutations_it->second +
                                          " holds no mutations"));
    }
    if (auto s = store->store->AppendBatch(batch); !s.ok()) return Fail(s);
    applied = batch.size();
  }

  const IngestStats stats = store->store->stats();
  std::printf("appended %zu mutations (%zu pending, log %zu bytes, "
              "epoch %016llx)\n",
              applied, stats.pending, stats.log_bytes,
              static_cast<unsigned long long>(
                  store->store->Snapshot()->epoch()));

  if (IntFlag<int>(flags, "merge", 0, 0, 1) != 0) {
    auto merged = store->store->Merge();
    if (!merged.ok()) return Fail(merged.status());
    std::printf("merged %zu mutations: epoch %016llx -> %016llx%s\n",
                merged->merged_mutations,
                static_cast<unsigned long long>(merged->old_epoch),
                static_cast<unsigned long long>(merged->new_epoch),
                merged->persisted ? " (persisted, log rotated)" : "");
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: domd <generate|obfuscate|stats|train|tune|evaluate|query|"
      "predict|sql|report|ingest> [flags]\n"
      "  see the header of tools/domd_cli.cc for flag details\n");
  return 2;
}

}  // namespace
}  // namespace domd

int main(int argc, char** argv) {
  if (argc < 2) return domd::Usage();
  const std::string command = argv[1];
  const domd::Flags flags = domd::ParseFlags(argc, argv, 2);
  if (const int rc = domd::ArmFaults(flags, "domd"); rc != 0) return rc;
  int exit_code = 2;
  bool dispatched = true;
  if (command == "generate") exit_code = domd::CmdGenerate(flags);
  else if (command == "obfuscate") exit_code = domd::CmdObfuscate(flags);
  else if (command == "stats") exit_code = domd::CmdStats(flags);
  else if (command == "train") exit_code = domd::CmdTrain(flags);
  else if (command == "tune") exit_code = domd::CmdTune(flags);
  else if (command == "evaluate") exit_code = domd::CmdEvaluate(flags);
  else if (command == "query") exit_code = domd::CmdQuery(flags);
  else if (command == "predict") exit_code = domd::CmdPredict(flags);
  else if (command == "sql") exit_code = domd::CmdSql(flags);
  else if (command == "report") exit_code = domd::CmdReport(flags);
  else if (command == "ingest") exit_code = domd::CmdIngest(flags);
  else dispatched = false;
  if (!dispatched) return domd::Usage();
  // --metrics-json PATH: dump everything the run observed (pipeline spans,
  // stage histograms) once the command finishes, pass or fail.
  if (const auto it = flags.find("metrics-json"); it != flags.end()) {
    if (int rc = domd::DumpMetricsJson(it->second); rc != 0 &&
        exit_code == 0) {
      exit_code = rc;
    }
  }
  return exit_code;
}
