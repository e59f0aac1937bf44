#ifndef DOMD_ML_COLUMNAR_H_
#define DOMD_ML_COLUMNAR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.h"

namespace domd {

/// Default bin budget for view-level quantization. 256 bins keep every
/// feature code in one byte; a larger budget widens codes to u16.
inline constexpr std::size_t kDefaultFrameBins = 256;

/// Ascending cut points partitioning a column into cuts.size()+1 bins:
/// bin b covers (cuts[b-1], cuts[b]], the last bin is open to the right.
/// With at most `max_bins` distinct values the cuts are exactly the
/// midpoints between adjacent distinct values — the same candidate
/// thresholds the exact split scan enumerates. Above the budget, cuts fall
/// on midpoints between adjacent distinct values at (approximately)
/// equal-frequency ranks. A constant column has no cuts. NaNs are ignored
/// when choosing cuts and always code into the last bin (the same side the
/// tree's `value <= threshold` routing sends them).
std::vector<double> BuildQuantizerCuts(std::span<const double> values,
                                       std::size_t max_bins);

/// Bin index of a value under the given cuts: the first b with
/// v <= cuts[b], or cuts.size() when no cut admits it (NaN included).
inline std::size_t BinOf(double v, std::span<const double> cuts) {
  std::size_t lo = 0, hi = cuts.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (v <= cuts[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// One feature column prepared for columnar tree growing: contiguous
/// values, the rows presorted by (value, row index) — the exact order the
/// per-node exact scan needs — and quantized bin codes (u8 when the cut
/// count fits a byte, u16 otherwise; exactly one of the two spans is
/// non-empty for a quantized column). Spans point into an OwnedColumn or a
/// ColumnarBlock.
struct FrameColumn {
  std::span<const double> values;
  std::span<const std::uint32_t> order;
  std::span<const std::uint8_t> codes8;
  std::span<const std::uint16_t> codes16;
  std::span<const double> cuts;

  std::size_t bins() const { return cuts.size() + 1; }
};

/// Self-owned backing storage for one FrameColumn.
struct OwnedColumn {
  std::vector<double> values;
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> codes8;
  std::vector<std::uint16_t> codes16;
  std::vector<double> cuts;
};

/// Sorts, cuts, and codes one column. The sort key is (value, row index),
/// matching std::sort over (value, row) pairs in the exact split scan.
OwnedColumn MakeOwnedColumn(std::vector<double> values, std::size_t max_bins);

/// Span view over an owned column.
FrameColumn ViewOfOwnedColumn(const OwnedColumn& owned);

/// The columnar design matrix a GBT fit consumes: one owned, sorted and
/// quantized column per feature of the fit's own input matrix. Movable,
/// not copyable: the column spans alias the owned storage.
class TrainingFrame {
 public:
  /// Columnarizes a row-major matrix (sort + quantize every column).
  static TrainingFrame FromMatrix(const Matrix& x,
                                  std::size_t max_bins = kDefaultFrameBins);

  TrainingFrame(TrainingFrame&&) = default;
  TrainingFrame& operator=(TrainingFrame&&) = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return columns_.size(); }
  const FrameColumn& column(std::size_t f) const { return columns_[f]; }

 private:
  TrainingFrame() = default;

  std::size_t rows_ = 0;
  std::vector<OwnedColumn> owned_;
  std::vector<FrameColumn> columns_;  ///< spans into owned_.
};

}  // namespace domd

#endif  // DOMD_ML_COLUMNAR_H_
