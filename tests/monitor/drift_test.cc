#include "monitor/drift.h"

#include <gtest/gtest.h>

#include "common/compiler.h"
#include "common/rng.h"

namespace domd {
namespace {

std::vector<double> Sample(Rng* rng, std::size_t n, double mean,
                           double stddev) {
  std::vector<double> out(n);
  for (double& v : out) v = rng->Gaussian(mean, stddev);
  return out;
}

TEST(PsiTest, IdenticalDistributionsScoreNearZero) {
  Rng rng(1);
  const auto reference = Sample(&rng, 2000, 10, 3);
  const auto live = Sample(&rng, 2000, 10, 3);
  EXPECT_LT(PopulationStabilityIndex(reference, live), 0.05);
}

TEST(PsiTest, ShiftedDistributionScoresHigh) {
  Rng rng(2);
  const auto reference = Sample(&rng, 2000, 10, 3);
  const auto shifted = Sample(&rng, 2000, 20, 3);
  EXPECT_GT(PopulationStabilityIndex(reference, shifted), 0.5);
}

TEST(PsiTest, SeverityIsMonotoneInShift) {
  Rng rng(3);
  const auto reference = Sample(&rng, 3000, 0, 1);
  double previous = 0.0;
  for (double shift : {0.2, 0.6, 1.2, 2.5}) {
    Rng live_rng(99);
    const auto live = Sample(&live_rng, 3000, shift, 1);
    const double psi = PopulationStabilityIndex(reference, live);
    EXPECT_GT(psi, previous);
    previous = psi;
  }
}

TEST(PsiTest, ConstantReferenceEdgeCases) {
  const std::vector<double> constant(50, 7.0);
  EXPECT_DOUBLE_EQ(PopulationStabilityIndex(constant, constant), 0.0);
  EXPECT_DOUBLE_EQ(PopulationStabilityIndex(constant, {7.0, 8.0}), 1.0);
  EXPECT_DOUBLE_EQ(PopulationStabilityIndex({}, {1.0}), 0.0);
  EXPECT_DOUBLE_EQ(PopulationStabilityIndex({1.0, 2.0}, {}), 0.0);
}

TEST(KsTest, IdenticalSamplesNearZeroShiftedNearOne) {
  Rng rng(4);
  const auto reference = Sample(&rng, 1500, 0, 1);
  const auto same = Sample(&rng, 1500, 0, 1);
  EXPECT_LT(KolmogorovSmirnovStatistic(reference, same), 0.07);
  const auto far = Sample(&rng, 1500, 50, 1);
  EXPECT_GT(KolmogorovSmirnovStatistic(reference, far), 0.99);
}

TEST(KsTest, SymmetricInArguments) {
  Rng rng(5);
  const auto a = Sample(&rng, 400, 0, 1);
  const auto b = Sample(&rng, 600, 0.7, 1.2);
  EXPECT_NEAR(KolmogorovSmirnovStatistic(a, b),
              KolmogorovSmirnovStatistic(b, a), 1e-12);
}

Matrix MatrixFromColumns(const std::vector<std::vector<double>>& columns) {
  Matrix m(columns[0].size(), columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c) {
    for (std::size_t r = 0; r < columns[c].size(); ++r) {
      m.at(r, c) = columns[c][r];
    }
  }
  return m;
}

TEST(DriftMonitorTest, FlagsOnlyShiftedColumns) {
  Rng rng(6);
  const Matrix reference = MatrixFromColumns(
      {Sample(&rng, 800, 0, 1), Sample(&rng, 800, 100, 10)});
  DriftMonitor monitor(DriftOptions{}, {"stable", "moving"});
  ASSERT_TRUE(monitor.SetReference(reference).ok());

  const Matrix live = MatrixFromColumns(
      {Sample(&rng, 800, 0, 1), Sample(&rng, 800, 160, 10)});
  const auto report = monitor.Evaluate(live);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_drifted, 1u);
  // Sorted by PSI descending: the shifted column first.
  EXPECT_EQ(report->features[0].feature_name, "moving");
  EXPECT_TRUE(report->features[0].drifted);
  EXPECT_FALSE(report->features[1].drifted);
  EXPECT_TRUE(report->retrain_recommended);  // 1/2 >= 10%
}

TEST(DriftMonitorTest, NoDriftNoRetrain) {
  Rng rng(7);
  const Matrix reference =
      MatrixFromColumns({Sample(&rng, 500, 5, 2), Sample(&rng, 500, -3, 1)});
  DriftMonitor monitor(DriftOptions{}, {"a", "b"});
  ASSERT_TRUE(monitor.SetReference(reference).ok());
  const Matrix live =
      MatrixFromColumns({Sample(&rng, 500, 5, 2), Sample(&rng, 500, -3, 1)});
  const auto report = monitor.Evaluate(live);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_drifted, 0u);
  EXPECT_FALSE(report->retrain_recommended);
}

TEST(DriftMonitorTest, RetrainFractionPolicy) {
  Rng rng(8);
  std::vector<std::vector<double>> ref_cols, live_cols;
  std::vector<std::string> names;
  for (int c = 0; c < 20; ++c) {
    DOMD_GCC_IGNORE_BEGIN("-Wrestrict")
    names.push_back("f" + std::to_string(c));
    DOMD_GCC_IGNORE_END
    ref_cols.push_back(Sample(&rng, 400, 0, 1));
    // Only one column shifts: 1/20 = 5% < default 10% threshold.
    live_cols.push_back(Sample(&rng, 400, c == 0 ? 10.0 : 0.0, 1));
  }
  DriftMonitor monitor(DriftOptions{}, names);
  ASSERT_TRUE(monitor.SetReference(MatrixFromColumns(ref_cols)).ok());
  const auto report = monitor.Evaluate(MatrixFromColumns(live_cols));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_drifted, 1u);
  EXPECT_FALSE(report->retrain_recommended);

  DriftOptions aggressive;
  aggressive.retrain_fraction = 0.05;
  DriftMonitor eager(aggressive, names);
  ASSERT_TRUE(eager.SetReference(MatrixFromColumns(ref_cols)).ok());
  EXPECT_TRUE(eager.Evaluate(MatrixFromColumns(live_cols))
                  ->retrain_recommended);
}

TEST(DriftMonitorTest, ApiErrors) {
  DriftMonitor monitor(DriftOptions{}, {"a"});
  EXPECT_EQ(monitor.Evaluate(Matrix(3, 1)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(monitor.SetReference(Matrix(5, 2)).ok());  // wrong arity
  EXPECT_FALSE(monitor.SetReference(Matrix(1, 1)).ok());  // too few rows
  Matrix reference(10, 1);
  for (std::size_t r = 0; r < 10; ++r) {
    reference.at(r, 0) = static_cast<double>(r);
  }
  ASSERT_TRUE(monitor.SetReference(reference).ok());
  EXPECT_FALSE(monitor.Evaluate(Matrix(3, 2)).ok());  // live arity
  EXPECT_FALSE(monitor.Evaluate(Matrix(0, 1)).ok());  // empty live
}

}  // namespace
}  // namespace domd
