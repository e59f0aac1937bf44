#include "core/timeline.h"

#include <cmath>

#include "common/parallel.h"
#include "features/static_features.h"
#include "ml/metrics.h"

namespace domd {
namespace {

// Tagged polymorphic save/load for the two concrete model families.
Status SaveRegressor(std::ostream& out, const Regressor& model) {
  if (const auto* gbt = dynamic_cast<const GbtRegressor*>(&model)) {
    out << "regressor gbt\n";
    gbt->Save(out);
    return Status::OK();
  }
  if (const auto* linear =
          dynamic_cast<const ElasticNetRegression*>(&model)) {
    out << "regressor elastic_net\n";
    linear->Save(out);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown regressor type for serialization");
}

StatusOr<std::unique_ptr<Regressor>> LoadRegressor(std::istream& in) {
  std::string tag, kind;
  if (!(in >> tag >> kind) || tag != "regressor") {
    return Status::InvalidArgument("bad regressor record");
  }
  if (kind == "gbt") {
    auto model = GbtRegressor::Load(in);
    if (!model.ok()) return model.status();
    return std::unique_ptr<Regressor>(
        std::make_unique<GbtRegressor>(std::move(*model)));
  }
  if (kind == "elastic_net") {
    auto model = ElasticNetRegression::Load(in);
    if (!model.ok()) return model.status();
    return std::unique_ptr<Regressor>(
        std::make_unique<ElasticNetRegression>(std::move(*model)));
  }
  return Status::InvalidArgument("unknown regressor kind: " + kind);
}

}  // namespace

ModelingView BuildModelingView(const Dataset& data,
                               const FeatureEngineer& engineer,
                               const std::vector<std::int64_t>& avail_ids,
                               const std::vector<double>& grid,
                               const Parallelism& parallelism) {
  ModelingView view;
  view.avail_ids = avail_ids;
  view.static_x = BuildStaticFeatures(data.avails, avail_ids);
  view.dynamic = engineer.ComputeIncremental(avail_ids, grid, parallelism);
  view.labels.assign(avail_ids.size(), 0.0);
  for (std::size_t i = 0; i < avail_ids.size(); ++i) {
    const auto avail = data.avails.Find(avail_ids[i]);
    if (!avail.ok()) continue;
    const auto delay = (*avail)->delay();
    if (delay.has_value()) view.labels[i] = static_cast<double>(*delay);
  }
  return view;
}

std::unique_ptr<Regressor> TimelineModelSet::MakeModel(
    const PipelineConfig& config) const {
  if (config.model_family == ModelFamily::kElasticNet) {
    return std::make_unique<ElasticNetRegression>(config.elastic_net);
  }
  return std::make_unique<GbtRegressor>(config.gbt, config.MakeLoss());
}

Status TimelineModelSet::Fit(
    const PipelineConfig& config, const ModelingView& train,
    const std::vector<std::string>& dynamic_feature_names) {
  if (train.avail_ids.empty()) {
    return Status::InvalidArgument("timeline fit: empty training view");
  }
  config_ = config;
  base_model_.reset();
  models_.clear();
  selected_.clear();
  input_names_.clear();

  const std::size_t steps = train.num_steps();
  const auto& static_names = StaticFeatureNames();

  // Stacked architecture: fit the static base model first; its prediction
  // becomes an input feature of every timeline model (Fig. 4).
  std::vector<double> base_train_pred;
  if (config.architecture == Architecture::kStacked) {
    base_model_ = MakeModel(config);
    DOMD_RETURN_IF_ERROR(base_model_->Fit(train.static_x, train.labels));
    base_train_pred = base_model_->PredictBatch(train.static_x);
  }

  // Task 2: per-step top-k selection over dynamic features only. Cheap,
  // so it stays serial and in step order: a selector drawing from a shared
  // stream would still pick the same columns at every thread count.
  auto selector = CreateSelector(config.selection, config.seed);
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<std::size_t> cols = selector->SelectTopK(
        train.dynamic.slice(step), train.labels, config.num_features);

    // Input column names, in the exact order the model sees its features.
    std::vector<std::string> names;
    if (config.architecture == Architecture::kStacked) {
      for (std::size_t c : cols) names.push_back(dynamic_feature_names[c]);
      names.push_back("BASE_PREDICTION");
    } else {
      names = static_names;
      for (std::size_t c : cols) names.push_back(dynamic_feature_names[c]);
    }
    selected_.push_back(std::move(cols));
    input_names_.push_back(std::move(names));
  }

  // The step models are independent given the selections: fit them in
  // parallel, each writing only its own slot (trees grow serially), so the
  // set is bit-identical to the serial loop at every thread count.
  models_.resize(steps);
  const auto fit_steps = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t step = lo; step < hi; ++step) {
      models_[step] = MakeModel(config);
      DOMD_RETURN_IF_ERROR(models_[step]->Fit(
          BuildInputMatrix(train, step, base_train_pred), train.labels));
    }
    return Status::OK();
  };
  const Status status = ParallelFor(config.parallelism.EffectiveThreads(),
                                    steps, 1, fit_steps);
  if (!status.ok()) models_.clear();  // never expose unfitted slots
  return status;
}

std::vector<double> TimelineModelSet::BuildInputRow(const ModelingView& view,
                                                    std::size_t row,
                                                    std::size_t step) const {
  std::vector<double> input;
  const auto& cols = selected_[step];
  if (is_stacked()) {
    input.reserve(cols.size() + 1);
    const Matrix& slice = view.dynamic.slice(step);
    for (std::size_t c : cols) input.push_back(slice.at(row, c));
    input.push_back(base_model_->Predict(view.static_x.row(row)));
  } else {
    const auto statics = view.static_x.row(row);
    input.reserve(statics.size() + cols.size());
    input.assign(statics.begin(), statics.end());
    const Matrix& slice = view.dynamic.slice(step);
    for (std::size_t c : cols) input.push_back(slice.at(row, c));
  }
  return input;
}

Matrix TimelineModelSet::BuildInputMatrix(
    const ModelingView& view, std::size_t step,
    const std::vector<double>& base_pred) const {
  const std::size_t n = view.avail_ids.size();
  const auto& cols = selected_[step];
  const Matrix& slice = view.dynamic.slice(step);
  if (is_stacked()) {
    Matrix input(n, cols.size() + 1);
    for (std::size_t row = 0; row < n; ++row) {
      std::size_t out_c = 0;
      for (std::size_t c : cols) input.at(row, out_c++) = slice.at(row, c);
      input.at(row, out_c) = base_pred[row];
    }
    return input;
  }
  const std::size_t statics = view.static_x.cols();
  Matrix input(n, statics + cols.size());
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t c = 0; c < statics; ++c) {
      input.at(row, c) = view.static_x.at(row, c);
    }
    std::size_t out_c = statics;
    for (std::size_t c : cols) input.at(row, out_c++) = slice.at(row, c);
  }
  return input;
}

std::vector<std::vector<double>> TimelineModelSet::PredictPerStep(
    const ModelingView& view) const {
  std::vector<std::vector<double>> out(models_.size());
  // One base-model sweep feeds every step's input matrix (stacked only);
  // PredictBatch is bit-identical to per-row Predict by contract.
  std::vector<double> base_pred;
  if (is_stacked()) base_pred = base_model_->PredictBatch(view.static_x);
  for (std::size_t step = 0; step < models_.size(); ++step) {
    const Matrix input = BuildInputMatrix(view, step, base_pred);
    out[step] = models_[step]->PredictBatch(input);
  }
  return out;
}

std::vector<double> TimelineModelSet::PredictFused(const ModelingView& view,
                                                   std::size_t last_step,
                                                   FusionMethod fusion) const {
  const std::vector<std::vector<double>> per_step = PredictPerStep(view);
  std::vector<double> fused(view.avail_ids.size(), 0.0);
  std::vector<double> prefix;
  for (std::size_t row = 0; row < view.avail_ids.size(); ++row) {
    prefix.clear();
    for (std::size_t step = 0; step <= last_step && step < per_step.size();
         ++step) {
      prefix.push_back(per_step[step][row]);
    }
    fused[row] = FusePredictions(fusion, prefix);
  }
  return fused;
}

Status TimelineModelSet::Save(std::ostream& out) const {
  out << "timeline_model_set v1\n";
  config_.Save(out);
  out << "stacked " << (is_stacked() ? 1 : 0) << "\n";
  if (is_stacked()) {
    DOMD_RETURN_IF_ERROR(SaveRegressor(out, *base_model_));
  }
  out << "steps " << models_.size() << "\n";
  for (std::size_t step = 0; step < models_.size(); ++step) {
    out << "selected " << selected_[step].size();
    for (std::size_t c : selected_[step]) out << ' ' << c;
    out << "\n";
    out << "names " << input_names_[step].size();
    for (const std::string& name : input_names_[step]) out << ' ' << name;
    out << "\n";
    DOMD_RETURN_IF_ERROR(SaveRegressor(out, *models_[step]));
  }
  return Status::OK();
}

StatusOr<TimelineModelSet> TimelineModelSet::Load(std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "timeline_model_set" ||
      version != "v1") {
    return Status::InvalidArgument("bad timeline model set header");
  }
  TimelineModelSet set;
  auto config = PipelineConfig::Load(in);
  if (!config.ok()) return config.status();
  set.config_ = *config;

  int stacked = 0;
  if (!(in >> tag >> stacked) || tag != "stacked") {
    return Status::InvalidArgument("bad stacked record");
  }
  if (stacked != 0) {
    auto base = LoadRegressor(in);
    if (!base.ok()) return base.status();
    set.base_model_ = std::move(*base);
  }

  std::size_t steps = 0;
  if (!(in >> tag >> steps) || tag != "steps" || steps > 10'000) {
    return Status::InvalidArgument("bad steps record");
  }
  for (std::size_t step = 0; step < steps; ++step) {
    std::size_t count = 0;
    if (!(in >> tag >> count) || tag != "selected" || count > 1'000'000) {
      return Status::InvalidArgument("bad selected record");
    }
    std::vector<std::size_t> selected(count);
    for (std::size_t& c : selected) {
      if (!(in >> c)) {
        return Status::InvalidArgument("truncated selected record");
      }
    }
    if (!(in >> tag >> count) || tag != "names" || count > 1'000'000) {
      return Status::InvalidArgument("bad names record");
    }
    std::vector<std::string> names(count);
    for (std::string& name : names) {
      if (!(in >> name)) {
        return Status::InvalidArgument("truncated names record");
      }
    }
    auto model = LoadRegressor(in);
    if (!model.ok()) return model.status();
    set.selected_.push_back(std::move(selected));
    set.input_names_.push_back(std::move(names));
    set.models_.push_back(std::move(*model));
  }
  return set;
}

double TimelineValidationMae(const TimelineModelSet& models,
                             const ModelingView& validation,
                             FusionMethod fusion) {
  const std::vector<std::vector<double>> per_step =
      models.PredictPerStep(validation);
  if (per_step.empty() || validation.avail_ids.empty()) return 0.0;

  double total = 0.0;
  std::size_t count = 0;
  std::vector<double> prefix;
  for (std::size_t row = 0; row < validation.avail_ids.size(); ++row) {
    prefix.clear();
    for (std::size_t step = 0; step < per_step.size(); ++step) {
      prefix.push_back(per_step[step][row]);
      const double estimate = FusePredictions(fusion, prefix);
      total += std::fabs(validation.labels[row] - estimate);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace domd
