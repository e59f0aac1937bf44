#include "core/domd_estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/test_helpers.h"
#include "data/logical_time.h"

namespace domd {
namespace {

using testing_internal::FastConfig;

class DomdEstimatorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthConfig config;
    config.seed = 21;
    config.num_avails = 50;
    config.mean_rccs_per_avail = 50.0;
    config.ongoing_fraction = 0.1;
    data_ = new Dataset(GenerateDataset(config));

    Rng rng(3);
    split_ = new DataSplit(*MakeSplit(data_->avails, SplitOptions{}, &rng));

    estimator_ = new StatusOr<DomdEstimator>(
        DomdEstimator::Train(data_, FastConfig(), split_->train));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    delete split_;
    delete data_;
  }

  static Dataset* data_;
  static DataSplit* split_;
  static StatusOr<DomdEstimator>* estimator_;
};

Dataset* DomdEstimatorTest::data_ = nullptr;
DataSplit* DomdEstimatorTest::split_ = nullptr;
StatusOr<DomdEstimator>* DomdEstimatorTest::estimator_ = nullptr;

TEST_F(DomdEstimatorTest, TrainsSuccessfully) {
  ASSERT_TRUE(estimator_->ok()) << estimator_->status();
  EXPECT_EQ((*estimator_)->grid().size(), 5u);  // x = 25%
}

TEST_F(DomdEstimatorTest, QueryProducesPerStepEstimatesUpToTStar) {
  // Problem 1: at t* = 55 with x = 25, estimates at 0, 25, 50 (3 steps).
  ASSERT_TRUE(estimator_->ok());
  const std::int64_t id = split_->test.front();
  const auto result = (*estimator_)->QueryAtLogicalTime(id, 55.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->avail_id, id);
  ASSERT_EQ(result->steps.size(), 3u);
  EXPECT_DOUBLE_EQ(result->steps[0].t_star, 0.0);
  EXPECT_DOUBLE_EQ(result->steps[1].t_star, 25.0);
  EXPECT_DOUBLE_EQ(result->steps[2].t_star, 50.0);
}

TEST_F(DomdEstimatorTest, FusedEstimateIsAverageByDefaultConfig) {
  ASSERT_TRUE(estimator_->ok());
  const std::int64_t id = split_->test.front();
  const auto result = (*estimator_)->QueryAtLogicalTime(id, 100.0);
  ASSERT_TRUE(result.ok());
  double sum = 0.0;
  for (const auto& step : result->steps) sum += step.estimated_delay_days;
  EXPECT_NEAR(result->fused_estimate_days,
              sum / static_cast<double>(result->steps.size()), 1e-9);
}

TEST_F(DomdEstimatorTest, TopFiveContributingFeatures) {
  // §5.2.5: the model surfaces the top-5 contributing features per avail.
  ASSERT_TRUE(estimator_->ok());
  const std::int64_t id = split_->test.front();
  const auto result = (*estimator_)->QueryAtLogicalTime(id, 50.0, 5);
  ASSERT_TRUE(result.ok());
  for (const auto& step : result->steps) {
    EXPECT_LE(step.top_features.size(), 5u);
    EXPECT_FALSE(step.top_features.empty());
    for (std::size_t i = 1; i < step.top_features.size(); ++i) {
      EXPECT_GE(std::abs(step.top_features[i - 1].contribution),
                std::abs(step.top_features[i].contribution));
    }
    EXPECT_FALSE(step.top_features[0].feature_name.empty());
  }
}

TEST_F(DomdEstimatorTest, OngoingAvailsAreQueryable) {
  ASSERT_TRUE(estimator_->ok());
  for (const Avail& avail : data_->avails.rows()) {
    if (avail.status != AvailStatus::kOngoing) continue;
    const auto result = (*estimator_)->QueryAtLogicalTime(avail.id, 40.0);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->steps.size(), 2u);
    return;  // one ongoing avail suffices
  }
  GTEST_SKIP() << "no ongoing avail generated";
}

TEST_F(DomdEstimatorTest, QueryByPhysicalDate) {
  ASSERT_TRUE(estimator_->ok());
  const std::int64_t id = split_->test.front();
  const Avail& avail = **data_->avails.Find(id);
  const Date mid = PhysicalTime(avail, 50.0);
  const auto result = (*estimator_)->Query(id, mid);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->query_t_star, 50.0, 1.0);
}

TEST_F(DomdEstimatorTest, DateBeforeStartClampsToBasePrediction) {
  ASSERT_TRUE(estimator_->ok());
  const std::int64_t id = split_->test.front();
  const Avail& avail = **data_->avails.Find(id);
  const auto result = (*estimator_)->Query(id, avail.actual_start + (-100));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->steps.size(), 1u);
  EXPECT_DOUBLE_EQ(result->steps[0].t_star, 0.0);
}

TEST_F(DomdEstimatorTest, UnknownAvailRejected) {
  ASSERT_TRUE(estimator_->ok());
  EXPECT_FALSE((*estimator_)->QueryAtLogicalTime(999999, 50.0).ok());
}

TEST_F(DomdEstimatorTest, TrainRejectsOngoingTrainingAvail) {
  std::vector<std::int64_t> ids = split_->train;
  for (const Avail& avail : data_->avails.rows()) {
    if (avail.status == AvailStatus::kOngoing) {
      ids.push_back(avail.id);
      break;
    }
  }
  if (ids.size() == split_->train.size()) {
    GTEST_SKIP() << "no ongoing avail generated";
  }
  const auto bad = DomdEstimator::Train(data_, FastConfig(), ids);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DomdEstimatorTest, TrainRejectsEmptyOrUnknownIds) {
  EXPECT_FALSE(DomdEstimator::Train(data_, FastConfig(), {}).ok());
  EXPECT_FALSE(DomdEstimator::Train(data_, FastConfig(), {424242}).ok());
}

TEST_F(DomdEstimatorTest, TrainRejectsUnsupportedConfig) {
  PipelineConfig quantile = FastConfig();
  quantile.loss = LossKind::kQuantile;
  const auto bad_loss = DomdEstimator::Train(data_, quantile, split_->train);
  ASSERT_FALSE(bad_loss.ok());
  EXPECT_EQ(bad_loss.status().code(), StatusCode::kInvalidArgument);

  PipelineConfig fusion = FastConfig();
  fusion.fusion = static_cast<FusionMethod>(42);
  const auto bad_fusion = DomdEstimator::Train(data_, fusion, split_->train);
  ASSERT_FALSE(bad_fusion.ok());
  EXPECT_EQ(bad_fusion.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DomdEstimatorTest, LoadRejectsSelectedColumnOutsideCatalog) {
  // Scoring engineers exactly the selected columns, so a model file that
  // selects a column past the catalog must not load.
  ASSERT_TRUE(estimator_->ok());
  std::ostringstream saved;
  ASSERT_TRUE((*estimator_)->models().Save(saved).ok());
  std::istringstream intact(saved.str());
  ASSERT_TRUE(DomdEstimator::LoadModelsFromStream(data_, intact).ok());

  std::string text = saved.str();
  const std::size_t record = text.find("\nselected ");
  ASSERT_NE(record, std::string::npos);
  const std::size_t first_column = text.find(' ', record + 10) + 1;
  const std::size_t end = text.find_first_of(" \n", first_column);
  text.replace(first_column, end - first_column, "1490");
  std::istringstream tampered(text);
  const auto loaded = DomdEstimator::LoadModelsFromStream(data_, tampered);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DomdEstimatorTest, PredictionsAreUsefulOnTestSet) {
  ASSERT_TRUE(estimator_->ok());
  double mae = 0.0, baseline = 0.0;
  std::size_t count = 0;
  for (std::int64_t id : split_->test) {
    const Avail& avail = **data_->avails.Find(id);
    const auto result = (*estimator_)->QueryAtLogicalTime(id, 100.0);
    ASSERT_TRUE(result.ok());
    const double truth = static_cast<double>(*avail.delay());
    mae += std::abs(truth - result->fused_estimate_days);
    baseline += std::abs(truth);
    ++count;
  }
  ASSERT_GT(count, 0u);
  EXPECT_LT(mae / count, baseline / count)
      << "estimator should beat the always-zero baseline";
}

}  // namespace
}  // namespace domd
