#include "ml/columnar.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "ml/gbt.h"
#include "ml/tree.h"

namespace domd {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
                    int distinct = 0) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (distinct > 0) {
        x.at(r, c) = static_cast<double>(
            rng.UniformInt(0, distinct - 1));
      } else {
        x.at(r, c) = rng.Uniform() * 10.0 - 5.0;
      }
    }
  }
  return x;
}

std::vector<double> RandomLabels(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> y(rows);
  for (double& v : y) v = rng.Uniform() * 40.0;
  return y;
}

std::string SaveToString(const GbtRegressor& model) {
  std::ostringstream out;
  model.Save(out);
  return out.str();
}

TEST(QuantizerCuts, MidpointsWhenDistinctFitsBudget) {
  const std::vector<double> values = {3.0, 1.0, 2.0, 1.0, 3.0};
  const std::vector<double> cuts = BuildQuantizerCuts(values, 256);
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_EQ(cuts[0], 0.5 * (1.0 + 2.0));
  EXPECT_EQ(cuts[1], 0.5 * (2.0 + 3.0));
}

TEST(QuantizerCuts, ConstantColumnHasNoCuts) {
  const std::vector<double> values = {4.0, 4.0, 4.0};
  EXPECT_TRUE(BuildQuantizerCuts(values, 256).empty());
}

TEST(QuantizerCuts, SignedZerosCollapseToOneValue) {
  const std::vector<double> values = {-0.0, +0.0, -0.0};
  EXPECT_TRUE(BuildQuantizerCuts(values, 256).empty());
  const std::vector<double> mixed = {-0.0, 1.0, +0.0};
  const std::vector<double> cuts = BuildQuantizerCuts(mixed, 256);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], 0.5);
}

TEST(QuantizerCuts, OverBudgetCutsAreStrictlyIncreasing) {
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(static_cast<double>(i));
  const std::vector<double> cuts = BuildQuantizerCuts(values, 64);
  ASSERT_FALSE(cuts.empty());
  ASSERT_LE(cuts.size(), 63u);
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
  }
}

TEST(QuantizerCuts, BinOfRoutesCutPointValuesLeft) {
  // A value exactly on a cut belongs to the left bin — the same side the
  // tree's `value <= threshold` comparison routes it.
  const std::vector<double> cuts = {1.5, 2.5};
  EXPECT_EQ(BinOf(1.0, cuts), 0u);
  EXPECT_EQ(BinOf(1.5, cuts), 0u);
  EXPECT_EQ(BinOf(2.0, cuts), 1u);
  EXPECT_EQ(BinOf(2.5, cuts), 1u);
  EXPECT_EQ(BinOf(3.0, cuts), 2u);
  EXPECT_EQ(BinOf(std::numeric_limits<double>::quiet_NaN(), cuts), 2u);
}

TEST(OwnedColumn, OrderMatchesValueThenRowSort) {
  OwnedColumn owned =
      MakeOwnedColumn({2.0, 1.0, 2.0, 0.5, 1.0}, 256);
  const std::vector<std::uint32_t> expected = {3, 1, 4, 0, 2};
  EXPECT_EQ(owned.order, expected);
}

TEST(OwnedColumn, WideBudgetUsesSixteenBitCodes) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i));
  OwnedColumn owned = MakeOwnedColumn(std::move(values), 1024);
  EXPECT_TRUE(owned.codes8.empty());
  ASSERT_EQ(owned.codes16.size(), 1000u);
  EXPECT_EQ(owned.codes16[0], 0u);
  EXPECT_EQ(owned.codes16[999], 999u);
}

TEST(OwnedColumn, NarrowBudgetUsesByteCodes) {
  OwnedColumn owned = MakeOwnedColumn({1.0, 2.0, 3.0}, 256);
  ASSERT_EQ(owned.codes8.size(), 3u);
  EXPECT_TRUE(owned.codes16.empty());
  EXPECT_EQ(owned.codes8[0], 0u);
  EXPECT_EQ(owned.codes8[2], 2u);
}

class LayoutIdentityTest : public ::testing::TestWithParam<SplitMethod> {};

// The tentpole identity: columnar training must reproduce the row-major
// ensemble bit for bit — same trees, same thresholds, same weights — for
// both split methods.
TEST_P(LayoutIdentityTest, ColumnarMatchesRowMajorBitwise) {
  const SplitMethod method = GetParam();
  const Matrix x = RandomMatrix(240, 12, 7);
  const std::vector<double> y = RandomLabels(240, 11);

  GbtParams params;
  params.num_rounds = 25;
  params.subsample = 0.8;
  params.colsample = 0.7;
  params.tree.max_depth = 4;
  params.tree.split_method = method;

  params.tree.layout = TreeLayout::kRowMajor;
  GbtRegressor row_model(params, Loss::PseudoHuber(18.0));
  ASSERT_TRUE(row_model.Fit(x, y).ok());

  params.tree.layout = TreeLayout::kColumnar;
  GbtRegressor col_model(params, Loss::PseudoHuber(18.0));
  ASSERT_TRUE(col_model.Fit(x, y).ok());

  EXPECT_EQ(SaveToString(row_model), SaveToString(col_model));
}

INSTANTIATE_TEST_SUITE_P(Methods, LayoutIdentityTest,
                         ::testing::Values(SplitMethod::kExact,
                                           SplitMethod::kHistogram),
                         [](const auto& info) {
                           return info.param == SplitMethod::kExact
                                      ? "Exact"
                                      : "Histogram";
                         });

TEST(LayoutIdentity, AbsoluteLossLeafRefinementMatches) {
  // The leaf-refinement path (LeafFor vs LeafForFrameRow) must route rows
  // identically or the order statistics diverge.
  const Matrix x = RandomMatrix(150, 6, 19);
  const std::vector<double> y = RandomLabels(150, 23);

  GbtParams params;
  params.num_rounds = 15;
  params.tree.layout = TreeLayout::kRowMajor;
  GbtRegressor row_model(params, Loss::Absolute());
  ASSERT_TRUE(row_model.Fit(x, y).ok());

  params.tree.layout = TreeLayout::kColumnar;
  GbtRegressor col_model(params, Loss::Absolute());
  ASSERT_TRUE(col_model.Fit(x, y).ok());

  EXPECT_EQ(SaveToString(row_model), SaveToString(col_model));
}

TEST(LayoutIdentity, DuplicateHeavyColumnsMatch) {
  // Many ties stress the (value, row) ordering and the boundary-skip
  // logic of the presorted exact walk.
  const Matrix x = RandomMatrix(300, 8, 31, /*distinct=*/5);
  const std::vector<double> y = RandomLabels(300, 37);

  GbtParams params;
  params.num_rounds = 20;
  params.tree.layout = TreeLayout::kRowMajor;
  GbtRegressor row_model(params, Loss::Squared());
  ASSERT_TRUE(row_model.Fit(x, y).ok());

  params.tree.layout = TreeLayout::kColumnar;
  GbtRegressor col_model(params, Loss::Squared());
  ASSERT_TRUE(col_model.Fit(x, y).ok());

  EXPECT_EQ(SaveToString(row_model), SaveToString(col_model));
}

// --- Quantized (opt-in) path: split identity on bin-boundary edge cases.

/// Grows one tree with the exact scan and one with the quantized scan and
/// requires identical structure: same split features, and every training
/// row routed to the same leaf partition.
void ExpectQuantizedMatchesExact(const Matrix& x,
                                 const std::vector<double>& y) {
  GbtParams params;
  params.num_rounds = 8;
  params.tree.max_depth = 3;

  params.tree.layout = TreeLayout::kRowMajor;
  params.tree.quantized = false;
  GbtRegressor exact(params, Loss::Squared());
  ASSERT_TRUE(exact.Fit(x, y).ok());

  params.tree.layout = TreeLayout::kColumnar;
  params.tree.quantized = true;
  GbtRegressor quantized(params, Loss::Squared());
  ASSERT_TRUE(quantized.Fit(x, y).ok());

  // Identical routing of every training row implies identical leaf
  // partitions, hence identical weights and identical predictions.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(exact.Predict(x.row(r)), quantized.Predict(x.row(r)))
        << "row " << r;
  }
}

TEST(QuantizedSplits, SmallIntegerGridMatchesExact) {
  // Exactly representable values and fewer distinct values than bins:
  // cuts are the exact scan's midpoints and all gradient sums are exact,
  // so any split divergence is a real bug, not FP reordering.
  const Matrix x = RandomMatrix(200, 5, 43, /*distinct=*/7);
  std::vector<double> y(200);
  for (std::size_t r = 0; r < y.size(); ++r) {
    y[r] = x.at(r, 0) * 2.0 + x.at(r, 3);
  }
  ExpectQuantizedMatchesExact(x, y);
}

TEST(QuantizedSplits, AllIdenticalColumnNeverSplits) {
  Matrix x = RandomMatrix(100, 3, 47, /*distinct=*/4);
  for (std::size_t r = 0; r < x.rows(); ++r) x.at(r, 1) = 2.5;
  std::vector<double> y(100);
  for (std::size_t r = 0; r < y.size(); ++r) y[r] = x.at(r, 0);
  ExpectQuantizedMatchesExact(x, y);
}

TEST(QuantizedSplits, SignedZeroColumnMatchesExact) {
  Matrix x = RandomMatrix(120, 2, 53, /*distinct=*/3);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    x.at(r, 1) = (r % 3 == 0) ? -0.0 : ((r % 3 == 1) ? +0.0 : 1.0);
  }
  std::vector<double> y(120);
  for (std::size_t r = 0; r < y.size(); ++r) {
    y[r] = x.at(r, 1) == 0.0 ? 1.0 : 5.0;
  }
  ExpectQuantizedMatchesExact(x, y);
}

TEST(QuantizedSplits, ValuesExactlyOnCutPointsRouteLeft) {
  // Train where distinct values {1,2} give a cut at 1.5, then feed rows
  // whose feature sits exactly on that cut: both paths must route left.
  Matrix x(60, 1);
  std::vector<double> y(60);
  for (std::size_t r = 0; r < 60; ++r) {
    x.at(r, 0) = r < 30 ? 1.0 : 2.0;
    y[r] = r < 30 ? 10.0 : 20.0;
  }
  GbtParams params;
  params.num_rounds = 4;
  params.tree.quantized = true;
  GbtRegressor quantized(params, Loss::Squared());
  ASSERT_TRUE(quantized.Fit(x, y).ok());

  params.tree.quantized = false;
  params.tree.layout = TreeLayout::kRowMajor;
  GbtRegressor exact(params, Loss::Squared());
  ASSERT_TRUE(exact.Fit(x, y).ok());

  const std::vector<double> probe = {1.5};
  EXPECT_EQ(exact.Predict(probe), quantized.Predict(probe));
  const std::vector<double> left = {1.0};
  EXPECT_EQ(quantized.Predict(probe), quantized.Predict(left));
}

TEST(TrainingFrame, FromMatrixShapes) {
  const Matrix x = RandomMatrix(50, 4, 59);
  const TrainingFrame frame = TrainingFrame::FromMatrix(x);
  EXPECT_EQ(frame.rows(), 50u);
  EXPECT_EQ(frame.cols(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    const FrameColumn& column = frame.column(c);
    ASSERT_EQ(column.values.size(), 50u);
    ASSERT_EQ(column.order.size(), 50u);
    EXPECT_EQ(column.codes8.size(), 50u);
    for (std::size_t r = 0; r < 50; ++r) {
      EXPECT_EQ(column.values[r], x.at(r, c));
    }
  }
}

}  // namespace
}  // namespace domd
