#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/timeline.h"
#include "data/logical_time.h"
#include "eval/cross_validation.h"
#include "features/feature_engineer.h"
#include "synth/generator.h"

namespace domd {
namespace {

// The contract under test: every parallel path is bit-identical to the
// serial one, so num_threads only trades wall-clock. "Bit-identical" is
// checked literally — doubles are compared by their bit patterns and
// models by their serialized text.

const int kThreadCounts[] = {1, 2, 8};

Dataset SeededFleet() {
  SynthConfig config;
  config.seed = 42;
  config.num_avails = 73;  // the paper's fleet size
  config.mean_rccs_per_avail = 50;
  config.ongoing_fraction = 0.1;
  return GenerateDataset(config);
}

std::vector<std::int64_t> AllIds(const Dataset& data) {
  std::vector<std::int64_t> ids;
  for (const Avail& avail : data.avails.rows()) ids.push_back(avail.id);
  return ids;
}

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectTensorsBitIdentical(const FeatureTensor& a, const FeatureTensor& b,
                               int threads) {
  ASSERT_EQ(a.num_steps(), b.num_steps());
  ASSERT_EQ(a.num_avails(), b.num_avails());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (std::size_t step = 0; step < a.num_steps(); ++step) {
    const Matrix& ma = a.slice(step);
    const Matrix& mb = b.slice(step);
    for (std::size_t r = 0; r < ma.rows(); ++r) {
      for (std::size_t c = 0; c < ma.cols(); ++c) {
        ASSERT_TRUE(BitIdentical(ma.at(r, c), mb.at(r, c)))
            << "threads=" << threads << " step=" << step << " row=" << r
            << " col=" << c << ": " << ma.at(r, c) << " vs " << mb.at(r, c);
      }
    }
  }
}

TEST(ParallelDeterminismTest, FeatureTensorBitIdenticalAcrossThreadCounts) {
  const Dataset data = SeededFleet();
  const std::vector<std::int64_t> ids = AllIds(data);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const FeatureEngineer engineer(&data);

  const FeatureTensor serial = engineer.ComputeIncremental(ids, grid);
  for (int threads : kThreadCounts) {
    Parallelism parallelism;
    parallelism.num_threads = threads;
    const FeatureTensor tensor =
        engineer.ComputeIncremental(ids, grid, parallelism);
    ExpectTensorsBitIdentical(serial, tensor, threads);
  }
}

TEST(ParallelDeterminismTest, FeatureTensorBitIdenticalOnRowSubset) {
  // Subset engineering drives a block-restricted StatStructure per worker;
  // the rows must still match the full serial sweep exactly.
  const Dataset data = SeededFleet();
  std::vector<std::int64_t> ids = AllIds(data);
  ids.resize(ids.size() / 2);
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const FeatureEngineer engineer(&data);

  const FeatureTensor serial = engineer.ComputeIncremental(ids, grid);
  for (int threads : kThreadCounts) {
    Parallelism parallelism;
    parallelism.num_threads = threads;
    ExpectTensorsBitIdentical(
        serial, engineer.ComputeIncremental(ids, grid, parallelism), threads);
  }
}

std::string FitTimelineAndSerialize(const ModelingView& view,
                                    const std::vector<std::string>& names,
                                    PipelineConfig config, int threads) {
  config.parallelism.num_threads = threads;
  TimelineModelSet models;
  const Status status = models.Fit(config, view, names);
  EXPECT_TRUE(status.ok()) << status;
  std::ostringstream out;
  EXPECT_TRUE(models.Save(out).ok());
  return out.str();
}

class TimelineFitDeterminismTest
    : public ::testing::TestWithParam<std::tuple<SplitMethod, Architecture>> {
};

// The step models fit in parallel; selection stays serial. The Random
// selector draws from one RNG in step order, so it fails this test if
// selection ever moves into the parallel loop.
TEST_P(TimelineFitDeterminismTest, SerializedModelsIdenticalAcrossThreads) {
  const auto [method, architecture] = GetParam();
  const Dataset data = SeededFleet();
  const std::vector<double> grid = LogicalTimeGrid(25.0);
  const FeatureEngineer engineer(&data);
  std::vector<std::int64_t> closed;
  for (const Avail& avail : data.avails.rows()) {
    if (avail.delay().has_value()) closed.push_back(avail.id);
  }
  const ModelingView view = BuildModelingView(data, engineer, closed, grid);
  std::vector<std::string> names;
  for (const FeatureDef& def : engineer.catalog().features()) {
    names.push_back(def.name);
  }

  PipelineConfig config;
  config.selection = SelectionMethod::kRandom;
  config.num_features = 12;
  config.architecture = architecture;
  config.gbt.num_rounds = 15;
  config.gbt.tree.max_depth = 4;
  config.gbt.tree.split_method = method;
  config.window_width_pct = 25.0;

  const std::string serial = FitTimelineAndSerialize(view, names, config, 1);
  ASSERT_FALSE(serial.empty());
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(FitTimelineAndSerialize(view, names, config, threads), serial)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TimelineFitDeterminismTest,
    ::testing::Combine(::testing::Values(SplitMethod::kExact,
                                         SplitMethod::kHistogram),
                       ::testing::Values(Architecture::kNonStacked,
                                         Architecture::kStacked)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == SplitMethod::kExact
                             ? "Exact"
                             : "Histogram") +
             (std::get<1>(info.param) == Architecture::kStacked
                  ? "Stacked"
                  : "NonStacked");
    });

TEST(ParallelDeterminismTest, CrossValidationMetricsIdenticalAcrossThreads) {
  const Dataset data = SeededFleet();
  PipelineConfig config;
  config.num_features = 15;
  config.gbt.num_rounds = 15;
  config.window_width_pct = 25.0;
  CvOptions options;
  options.num_folds = 3;

  const auto serial = CrossValidate(data, config, options);
  ASSERT_TRUE(serial.ok()) << serial.status();

  for (int threads : kThreadCounts) {
    config.parallelism.num_threads = threads;
    const auto result = CrossValidate(data, config, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->folds.size(), serial->folds.size());
    for (std::size_t f = 0; f < serial->folds.size(); ++f) {
      EXPECT_EQ(result->folds[f].held_out_ids, serial->folds[f].held_out_ids)
          << "threads=" << threads << " fold=" << f;
      EXPECT_TRUE(BitIdentical(result->folds[f].metrics.mae100,
                               serial->folds[f].metrics.mae100))
          << "threads=" << threads << " fold=" << f;
      EXPECT_TRUE(BitIdentical(result->folds[f].metrics.rmse,
                               serial->folds[f].metrics.rmse))
          << "threads=" << threads << " fold=" << f;
      EXPECT_TRUE(BitIdentical(result->folds[f].metrics.r2,
                               serial->folds[f].metrics.r2))
          << "threads=" << threads << " fold=" << f;
    }
    EXPECT_TRUE(BitIdentical(result->mean.mae100, serial->mean.mae100));
    EXPECT_TRUE(BitIdentical(result->mae_stddev, serial->mae_stddev));
  }
}

}  // namespace
}  // namespace domd
