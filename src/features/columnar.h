#ifndef DOMD_FEATURES_COLUMNAR_H_
#define DOMD_FEATURES_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "features/feature_tensor.h"
#include "ml/columnar.h"
#include "ml/matrix.h"

namespace domd {

/// One matrix (the statics, or one grid step of the dynamic tensor)
/// restructured column-major with the per-column sort orders, quantizer
/// cuts, and bin codes a columnar GBT fit consumes. All per-column arrays
/// are packed into contiguous pools indexed by column. Read by no src/
/// path: only ColumnarView builds it.
struct ColumnarBlock {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> values;         ///< cols x rows, column-major.
  std::vector<std::uint32_t> order;   ///< cols x rows, (value,row)-sorted.
  std::vector<std::uint8_t> codes8;   ///< cols x rows when cuts fit u8.
  std::vector<std::uint16_t> codes16; ///< cols x rows otherwise.
  std::vector<double> cuts;           ///< concatenated per-column cuts.
  std::vector<std::uint32_t> cut_offsets;  ///< cols + 1 prefix offsets.

  /// Span view of one column (codes8 XOR codes16 non-empty block-wide).
  FrameColumn column(std::size_t c) const;
  std::size_t ApproxBytes() const;
};

/// Builds a ColumnarBlock from a row-major matrix. Columns are independent,
/// so the transpose/sort/quantize sweep parallelizes trivially and is
/// bit-identical at every thread count.
ColumnarBlock BuildColumnarBlock(const Matrix& x, std::size_t max_bins,
                                 const Parallelism& parallelism = {});

/// Every dynamic grid step and the static features of a view, sorted and
/// quantized column by column. Read by no src/ path — no src/ view carries
/// one, and a GBT fit columnarizes only its own input matrix
/// (TrainingFrame::FromMatrix). Kept only for perfbench's replay, which
/// still times the build.
class ColumnarView {
 public:
  /// Sorts and quantizes every column of every step. `max_bins` <= 256
  /// keeps all codes one byte wide.
  static std::shared_ptr<const ColumnarView> Build(
      const Matrix& statics, const FeatureTensor& dynamic,
      std::size_t max_bins = kDefaultFrameBins,
      const Parallelism& parallelism = {});

  std::size_t rows() const { return statics_.rows; }
  std::size_t num_steps() const { return steps_.size(); }

  FrameColumn static_column(std::size_t c) const {
    return statics_.column(c);
  }
  std::size_t static_cols() const { return statics_.cols; }

  FrameColumn dynamic_column(std::size_t step, std::size_t c) const {
    return steps_[step].column(c);
  }
  std::size_t dynamic_cols() const {
    return steps_.empty() ? 0 : steps_[0].cols;
  }

  /// Heap footprint for the view cache's byte budget.
  std::size_t ApproxBytes() const;

 private:
  ColumnarBlock statics_;
  std::vector<ColumnarBlock> steps_;
};

}  // namespace domd

#endif  // DOMD_FEATURES_COLUMNAR_H_
