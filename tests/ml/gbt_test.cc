#include "ml/gbt.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/metrics.h"

namespace domd {
namespace {

// Nonlinear target with an interaction: y = 10*1[x0>0] + 5*x1*x2 + noise.
void MakeData(std::size_t n, double noise, Matrix* x, std::vector<double>* y,
              std::uint64_t seed = 1) {
  Rng rng(seed);
  *x = Matrix(n, 3);
  y->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x->at(i, c) = rng.Uniform(-1, 1);
    (*y)[i] = 10.0 * (x->at(i, 0) > 0 ? 1.0 : 0.0) +
              5.0 * x->at(i, 1) * x->at(i, 2) + noise * rng.Gaussian();
  }
}

TEST(GbtTest, FitsNonlinearFunction) {
  Matrix x;
  std::vector<double> y;
  MakeData(400, 0.1, &x, &y);
  GbtParams params;
  params.num_rounds = 200;
  params.tree.max_depth = 3;
  GbtRegressor model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());

  Matrix test_x;
  std::vector<double> test_y;
  MakeData(200, 0.1, &test_x, &test_y, /*seed=*/42);
  EXPECT_GT(R2Score(test_y, model.PredictBatch(test_x)), 0.85);
}

TEST(GbtTest, BeatsLinearBaselineOnInteraction) {
  // Pure multiplicative interaction: linear models cannot capture it.
  Rng rng(5);
  Matrix x(300, 2);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x.at(i, 0) = rng.Uniform(-1, 1);
    x.at(i, 1) = rng.Uniform(-1, 1);
    y[i] = 8.0 * x.at(i, 0) * x.at(i, 1);
  }
  GbtParams params;
  params.num_rounds = 250;
  params.tree.max_depth = 4;
  GbtRegressor model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_GT(R2Score(y, model.PredictBatch(x)), 0.9);
}

TEST(GbtTest, TrainingLossDecreasesMonotonically) {
  Matrix x;
  std::vector<double> y;
  MakeData(200, 0.5, &x, &y);
  GbtParams params;
  params.num_rounds = 50;
  GbtRegressor model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  const auto& curve = model.training_curve();
  ASSERT_EQ(curve.size(), 50u);
  EXPECT_LT(curve.back(), curve.front());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i], curve[i - 1] + 1e-9);
  }
}

TEST(GbtTest, DeterministicGivenSeed) {
  Matrix x;
  std::vector<double> y;
  MakeData(150, 0.3, &x, &y);
  GbtParams params;
  params.num_rounds = 40;
  params.subsample = 0.8;
  params.colsample = 0.8;
  GbtRegressor a(params), b(params);
  ASSERT_TRUE(a.Fit(x, y).ok());
  ASSERT_TRUE(b.Fit(x, y).ok());
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_DOUBLE_EQ(a.Predict(x.row(r)), b.Predict(x.row(r)));
  }
}

TEST(GbtTest, SubsamplingStillLearns) {
  Matrix x;
  std::vector<double> y;
  MakeData(400, 0.2, &x, &y);
  GbtParams params;
  params.num_rounds = 150;
  params.subsample = 0.7;
  params.colsample = 0.7;
  GbtRegressor model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  EXPECT_GT(R2Score(y, model.PredictBatch(x)), 0.8);
}

TEST(GbtTest, RobustLossResistsOutliers) {
  // A corrupted heavy-tail sample: pseudo-Huber should track the bulk far
  // better than squared loss does.
  Rng rng(9);
  Matrix x(300, 1);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    x.at(i, 0) = rng.Uniform(0, 1);
    y[i] = 20.0 * x.at(i, 0) + rng.Gaussian();
    if (i % 25 == 0) y[i] += 2000.0;  // gross outliers
  }
  GbtParams params;
  params.num_rounds = 120;
  params.tree.max_depth = 2;

  GbtRegressor squared(params, Loss::Squared());
  GbtRegressor huber(params, Loss::PseudoHuber(18.0));
  ASSERT_TRUE(squared.Fit(x, y).ok());
  ASSERT_TRUE(huber.Fit(x, y).ok());

  // Evaluate on the clean relationship.
  double squared_error = 0, huber_error = 0;
  for (double probe = 0.05; probe < 1.0; probe += 0.1) {
    const std::vector<double> row = {probe};
    squared_error += std::fabs(squared.Predict(row) - 20.0 * probe);
    huber_error += std::fabs(huber.Predict(row) - 20.0 * probe);
  }
  EXPECT_LT(huber_error, squared_error);
}

TEST(GbtTest, BaseScoreIsMeanForSquaredMedianOtherwise) {
  Matrix x(5, 1);
  std::vector<double> y = {0, 0, 0, 10, 100};
  for (std::size_t i = 0; i < 5; ++i) x.at(i, 0) = static_cast<double>(i);
  GbtParams params;
  params.num_rounds = 1;
  GbtRegressor squared(params, Loss::Squared());
  ASSERT_TRUE(squared.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(squared.base_score(), 22.0);
  GbtRegressor robust(params, Loss::Absolute());
  ASSERT_TRUE(robust.Fit(x, y).ok());
  EXPECT_DOUBLE_EQ(robust.base_score(), 0.0);  // median of {0,0,0,10,100}
}

TEST(GbtTest, ContributionsDecomposeEveryPrediction) {
  Matrix x;
  std::vector<double> y;
  MakeData(150, 0.2, &x, &y);
  GbtParams params;
  params.num_rounds = 60;
  GbtRegressor model(params, Loss::PseudoHuber(18.0));
  ASSERT_TRUE(model.Fit(x, y).ok());
  for (std::size_t r = 0; r < 20; ++r) {
    const auto contributions = model.Contributions(x.row(r));
    ASSERT_EQ(contributions.size(), 4u);  // 3 features + bias
    double sum = 0;
    for (double c : contributions) sum += c;
    EXPECT_NEAR(sum, model.Predict(x.row(r)), 1e-9);
  }
}

TEST(GbtTest, ImportancesConcentrateOnInformativeFeature) {
  Rng rng(13);
  Matrix x(300, 4);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) {
    for (std::size_t c = 0; c < 4; ++c) x.at(i, c) = rng.Uniform(-1, 1);
    y[i] = 30.0 * x.at(i, 2);  // only feature 2 matters
  }
  GbtParams params;
  params.num_rounds = 80;
  GbtRegressor model(params);
  ASSERT_TRUE(model.Fit(x, y).ok());
  const auto importances = model.FeatureImportances();
  for (std::size_t c = 0; c < 4; ++c) {
    if (c != 2) {
      EXPECT_LT(importances[c], importances[2] * 0.05);
    }
  }
}

TEST(GbtTest, RejectsDegenerateInputs) {
  GbtRegressor model;
  Matrix empty;
  EXPECT_FALSE(model.Fit(empty, {}).ok());
  Matrix x(3, 1);
  EXPECT_FALSE(model.Fit(x, {1.0}).ok());
  GbtParams bad;
  bad.num_rounds = 0;
  GbtRegressor zero_rounds(bad);
  EXPECT_FALSE(zero_rounds.Fit(x, {1, 2, 3}).ok());
}

TEST(GbtTest, SingleSampleFallsBackToBaseScore) {
  Matrix x(1, 2);
  x.at(0, 0) = 1.0;
  GbtRegressor model;
  ASSERT_TRUE(model.Fit(x, {7.0}).ok());
  EXPECT_NEAR(model.Predict(x.row(0)), 7.0, 1.0);
}

}  // namespace
}  // namespace domd
