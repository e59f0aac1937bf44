#ifndef DOMD_BENCH_BENCH_COMMON_H_
#define DOMD_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/timeline.h"
#include "data/logical_time.h"
#include "data/splits.h"
#include "index/group_tree.h"
#include "synth/generator.h"

namespace domd {
namespace bench {

/// Wall-clock seconds of fn, averaged over `runs` runs (the paper reports
/// the average of 3 runs).
inline double TimeSeconds(const std::function<void()>& fn, int runs = 3) {
  double total = 0.0;
  for (int r = 0; r < runs; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    total += std::chrono::duration<double>(end - start).count();
  }
  return total / runs;
}

/// The modeling-experiment environment shared by the Fig. 6 / Table 7
/// benches: the synthetic fleet standing in for the NMD data, the paper's
/// split protocol, and train/validation/test views over the x = 10% grid.
struct ModelingBench {
  Dataset data;
  DataSplit split;
  std::unique_ptr<FeatureEngineer> engineer;
  std::vector<double> grid;
  ModelingView train;
  ModelingView validation;
  ModelingView test;
  std::vector<std::string> dynamic_names;
};

inline ModelingBench MakeModelingBench(double window_pct = 10.0,
                                       std::uint64_t seed = 42) {
  ModelingBench env;
  env.data = GenerateDataset(ModelingConfig(seed));
  Rng rng(seed + 1);
  env.split = *MakeSplit(env.data.avails, SplitOptions{}, &rng);
  env.engineer = std::make_unique<FeatureEngineer>(&env.data);
  env.grid = LogicalTimeGrid(window_pct);
  env.train =
      BuildModelingView(env.data, *env.engineer, env.split.train, env.grid);
  env.validation = BuildModelingView(env.data, *env.engineer,
                                     env.split.validation, env.grid);
  env.test =
      BuildModelingView(env.data, *env.engineer, env.split.test, env.grid);
  for (const FeatureDef& def : env.engineer->catalog().features()) {
    env.dynamic_names.push_back(def.name);
  }
  return env;
}

/// The paper's default GBT size used across the Fig. 6 stages.
inline PipelineConfig BenchBaseConfig() {
  PipelineConfig config;
  config.gbt.num_rounds = 120;
  config.gbt.tree.max_depth = 3;
  return config;
}

/// The Table-5-scale dataset used by the scalability experiments (built
/// once per process).
inline const Dataset& ScalabilityDataset() {
  static const Dataset& data =
      *new Dataset(GenerateDataset(ScalabilityConfig(42)));
  return data;
}

/// x-fold replication of the scalability dataset's logical-time entries,
/// keeping the temporal distribution intact (the paper's synthetic scaling).
inline std::vector<IndexEntry> ScaledScalabilityEntries(int factor) {
  static const std::vector<IndexEntry>& base =
      *new std::vector<IndexEntry>(BuildIndexEntries(ScalabilityDataset()));
  std::vector<IndexEntry> scaled;
  scaled.reserve(base.size() * static_cast<std::size_t>(factor));
  std::int64_t offset = 0;
  for (int k = 0; k < factor; ++k) {
    for (const IndexEntry& e : base) {
      scaled.push_back(IndexEntry{e.start, e.end, e.id + offset});
    }
    offset += static_cast<std::int64_t>(base.size()) + 1;
  }
  return scaled;
}

/// The git commit of the working directory, for a BENCH_*.json provenance
/// stamp: "unknown" outside a git checkout, with "-dirty" appended when
/// the tree has uncommitted changes.
inline std::string SourceCommit() {
  std::string commit;
  if (FILE* pipe = ::popen("git describe --always --dirty --abbrev=40 "
                           "2>/dev/null", "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      commit += buffer;
    }
    ::pclose(pipe);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == ' ')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

/// Prints a header banner for a bench section.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Per-step validation MAE of a fitted model set (no fusion): the series
/// the Fig. 6 timeline plots show.
inline std::vector<double> PerStepValidationMae(const TimelineModelSet& models,
                                                const ModelingView& view) {
  const auto per_step = models.PredictPerStep(view);
  std::vector<double> maes(per_step.size(), 0.0);
  for (std::size_t step = 0; step < per_step.size(); ++step) {
    double total = 0.0;
    for (std::size_t row = 0; row < view.labels.size(); ++row) {
      total += std::abs(view.labels[row] - per_step[step][row]);
    }
    maes[step] = view.labels.empty()
                     ? 0.0
                     : total / static_cast<double>(view.labels.size());
  }
  return maes;
}

}  // namespace bench
}  // namespace domd

#endif  // DOMD_BENCH_BENCH_COMMON_H_
