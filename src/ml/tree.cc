#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <utility>
#include <vector>

#include "ml/columnar.h"

namespace domd {
namespace {

double NewtonWeight(double g, double h, double lambda) {
  return -g / (h + lambda);
}

double ScoreHalf(double g, double h, double lambda) {
  return g * g / (h + lambda);
}

}  // namespace

void RegressionTree::Fit(const Matrix& x, const std::vector<double>& grad,
                         const std::vector<double>& hess,
                         const std::vector<std::size_t>& rows,
                         const std::vector<std::size_t>& features,
                         const TreeParams& params) {
  nodes_.clear();
  if (rows.empty()) {
    nodes_.push_back(Node{});
    return;
  }
  std::vector<std::size_t> work = rows;
  Grow(x, grad, hess, work, 0, work.size(), features, params, 0);
}

std::int32_t RegressionTree::Grow(const Matrix& x,
                                  const std::vector<double>& grad,
                                  const std::vector<double>& hess,
                                  std::vector<std::size_t>& rows,
                                  std::size_t begin, std::size_t end,
                                  const std::vector<std::size_t>& features,
                                  const TreeParams& params, int depth) {
  double g_total = 0.0, h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += grad[rows[i]];
    h_total += hess[rows[i]];
  }

  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(node_id)].weight =
      NewtonWeight(g_total, h_total, params.lambda);

  if (depth >= params.max_depth || end - begin < 2) return node_id;

  const SplitDecision split =
      params.split_method == SplitMethod::kExact
          ? FindSplitExact(x, grad, hess, rows, begin, end, features, params,
                           g_total, h_total)
          : FindSplitHistogram(x, grad, hess, rows, begin, end, features,
                               params, g_total, h_total);
  if (!split.found) return node_id;

  // Partition rows in place around the threshold.
  const std::size_t feature = split.feature;
  const double threshold = split.threshold;
  auto middle = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return x.at(r, feature) <= threshold; });
  const auto mid =
      static_cast<std::size_t>(middle - rows.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  const std::int32_t left =
      Grow(x, grad, hess, rows, begin, mid, features, params, depth + 1);
  const std::int32_t right =
      Grow(x, grad, hess, rows, mid, end, features, params, depth + 1);

  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = static_cast<std::int32_t>(feature);
  node.threshold = threshold;
  node.gain = split.gain;
  node.left = left;
  node.right = right;
  return node_id;
}

void RegressionTree::FitFrame(const TrainingFrame& frame,
                              const std::vector<double>& grad,
                              const std::vector<double>& hess,
                              const std::vector<std::size_t>& rows,
                              const std::vector<std::size_t>& features,
                              const TreeParams& params) {
  nodes_.clear();
  if (rows.empty()) {
    nodes_.push_back(Node{});
    return;
  }
  std::vector<std::size_t> work = rows;
  // Node membership mask for the presorted exact scan. Each node marks its
  // own rows before the split search and unmarks them after, so the vector
  // is allocated once per tree.
  std::vector<std::uint8_t> mask(frame.rows(), 0);
  GrowFrame(frame, grad, hess, work, 0, work.size(), features, params, 0,
            mask);
}

std::int32_t RegressionTree::GrowFrame(const TrainingFrame& frame,
                                       const std::vector<double>& grad,
                                       const std::vector<double>& hess,
                                       std::vector<std::size_t>& rows,
                                       std::size_t begin, std::size_t end,
                                       const std::vector<std::size_t>& features,
                                       const TreeParams& params, int depth,
                                       std::vector<std::uint8_t>& mask) {
  double g_total = 0.0, h_total = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    g_total += grad[rows[i]];
    h_total += hess[rows[i]];
  }

  const auto node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(node_id)].weight =
      NewtonWeight(g_total, h_total, params.lambda);

  if (depth >= params.max_depth || end - begin < 2) return node_id;

  const bool exact =
      !params.quantized && params.split_method == SplitMethod::kExact;
  if (exact) {
    for (std::size_t i = begin; i < end; ++i) mask[rows[i]] = 1;
  }
  const SplitDecision split = FindSplitFrame(
      frame, grad, hess, rows, begin, end, features, params, g_total,
      h_total, mask);
  if (exact) {
    for (std::size_t i = begin; i < end; ++i) mask[rows[i]] = 0;
  }
  if (!split.found) return node_id;

  const std::size_t feature = split.feature;
  const double threshold = split.threshold;
  const double* values = frame.column(feature).values.data();
  auto middle = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return values[r] <= threshold; });
  const auto mid = static_cast<std::size_t>(middle - rows.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  const std::int32_t left = GrowFrame(frame, grad, hess, rows, begin, mid,
                                      features, params, depth + 1, mask);
  const std::int32_t right = GrowFrame(frame, grad, hess, rows, mid, end,
                                       features, params, depth + 1, mask);

  Node& node = nodes_[static_cast<std::size_t>(node_id)];
  node.feature = static_cast<std::int32_t>(feature);
  node.threshold = threshold;
  node.gain = split.gain;
  node.left = left;
  node.right = right;
  return node_id;
}

RegressionTree::SplitDecision RegressionTree::FindSplitFrame(
    const TrainingFrame& frame, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end,
    const std::vector<std::size_t>& features, const TreeParams& params,
    double g_total, double h_total,
    const std::vector<std::uint8_t>& mask) const {
  const double parent_score = ScoreHalf(g_total, h_total, params.lambda);

  // Same reduction as the row-major FindSplit*: per-feature scans kept in
  // feature order, so the chosen split is bit-identical across layouts.
  SplitDecision best;
  for (const std::size_t feature : features) {
    SplitDecision candidate;
    if (params.quantized) {
      candidate = ScanFeatureQuantizedFrame(frame, grad, hess, rows, begin,
                                            end, feature, params, g_total,
                                            h_total, parent_score);
    } else if (params.split_method == SplitMethod::kExact) {
      candidate = ScanFeatureExactFrame(frame, grad, hess, end - begin,
                                        feature, params, g_total, h_total,
                                        parent_score, mask);
    } else {
      candidate = ScanFeatureHistogramFrame(frame, grad, hess, rows, begin,
                                            end, feature, params, g_total,
                                            h_total, parent_score);
    }
    best.Consider(candidate);
  }
  if (best.found && best.gain <= 0.0) best.found = false;
  return best;
}

RegressionTree::SplitDecision RegressionTree::ScanFeatureExactFrame(
    const TrainingFrame& frame, const std::vector<double>& grad,
    const std::vector<double>& hess, std::size_t node_size,
    std::size_t feature, const TreeParams& params, double g_total,
    double h_total, double parent_score,
    const std::vector<std::uint8_t>& mask) const {
  // The column's global (value, row) order filtered by the node mask IS
  // the per-node sorted sequence the row-major scan builds — same members,
  // same order — so accumulating boundaries along the walk reproduces
  // ScanFeatureExact bit for bit while skipping the per-node sort.
  SplitDecision best;
  const FrameColumn& column = frame.column(feature);
  const double* values = column.values.data();
  double g_left = 0.0, h_left = 0.0;
  double prev_v = 0.0;
  std::size_t prev_r = 0;
  std::size_t seen = 0;
  for (const std::uint32_t r : column.order) {
    if (!mask[r]) continue;
    const double v = values[r];
    if (seen > 0) {
      // The previous member joins the left side, then the boundary between
      // it and the current member is evaluated — exactly the i / i+1
      // stepping of the sorted-pairs loop.
      g_left += grad[prev_r];
      h_left += hess[prev_r];
      if (prev_v != v) {
        const double g_right = g_total - g_left;
        const double h_right = h_total - h_left;
        if (h_left >= params.min_child_weight &&
            h_right >= params.min_child_weight) {
          const double gain =
              0.5 * (ScoreHalf(g_left, h_left, params.lambda) +
                     ScoreHalf(g_right, h_right, params.lambda) -
                     parent_score) -
              params.gamma;
          if (gain > best.gain || (!best.found && gain > 0.0)) {
            best.found = true;
            best.feature = feature;
            best.threshold = 0.5 * (prev_v + v);
            best.gain = gain;
          }
        }
      }
    }
    prev_v = v;
    prev_r = r;
    if (++seen == node_size) break;  // no members left past the last one
  }
  return best;
}

RegressionTree::SplitDecision RegressionTree::ScanFeatureHistogramFrame(
    const TrainingFrame& frame, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end, std::size_t feature,
    const TreeParams& params, double g_total, double h_total,
    double parent_score) const {
  // Same arithmetic and accumulation order as ScanFeatureHistogram; the
  // only change is contiguous column reads instead of strided row-major
  // gathers, so the inner loops autovectorize and stay bit-identical.
  SplitDecision best;
  const auto bins =
      static_cast<std::size_t>(std::max(2, params.histogram_bins));
  const double* values = frame.column(feature).values.data();
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = begin; i < end; ++i) {
    const double v = values[rows[i]];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(hi > lo)) return best;

  std::vector<double> bin_g(bins, 0.0), bin_h(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = rows[i];
    auto b = static_cast<std::size_t>((values[r] - lo) / width);
    if (b >= bins) b = bins - 1;
    bin_g[b] += grad[r];
    bin_h[b] += hess[r];
  }

  double g_left = 0.0, h_left = 0.0;
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    g_left += bin_g[b];
    h_left += bin_h[b];
    const double g_right = g_total - g_left;
    const double h_right = h_total - h_left;
    if (h_left < params.min_child_weight ||
        h_right < params.min_child_weight) {
      continue;
    }
    const double gain =
        0.5 * (ScoreHalf(g_left, h_left, params.lambda) +
               ScoreHalf(g_right, h_right, params.lambda) - parent_score) -
        params.gamma;
    if (gain > best.gain || (!best.found && gain > 0.0)) {
      best.found = true;
      best.feature = feature;
      best.threshold = lo + width * static_cast<double>(b + 1);
      best.gain = gain;
    }
  }
  return best;
}

namespace {

/// Code-indexed gradient/Hessian accumulation into 4 independent partial
/// histograms (breaks the loop-carried FP dependence; the merge below is a
/// dense autovectorizable add). Templated on the code width (u8/u16).
template <typename Code>
void AccumulateQuantized(const Code* codes, const double* grad,
                         const double* hess,
                         const std::vector<std::size_t>& rows,
                         std::size_t begin, std::size_t end, std::size_t bins,
                         std::vector<double>& part_g,
                         std::vector<double>& part_h) {
  std::size_t i = begin;
  for (; i + 4 <= end; i += 4) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const std::size_t r = rows[i + lane];
      const std::size_t b = codes[r];
      part_g[lane * bins + b] += grad[r];
      part_h[lane * bins + b] += hess[r];
    }
  }
  for (; i < end; ++i) {
    const std::size_t r = rows[i];
    const std::size_t b = codes[r];
    part_g[b] += grad[r];
    part_h[b] += hess[r];
  }
}

}  // namespace

RegressionTree::SplitDecision RegressionTree::ScanFeatureQuantizedFrame(
    const TrainingFrame& frame, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end, std::size_t feature,
    const TreeParams& params, double g_total, double h_total,
    double parent_score) const {
  SplitDecision best;
  const FrameColumn& column = frame.column(feature);
  const std::size_t bins = column.bins();
  if (bins < 2) return best;  // constant column

  std::vector<double> part_g(4 * bins, 0.0), part_h(4 * bins, 0.0);
  if (!column.codes8.empty()) {
    AccumulateQuantized(column.codes8.data(), grad.data(), hess.data(), rows,
                        begin, end, bins, part_g, part_h);
  } else {
    AccumulateQuantized(column.codes16.data(), grad.data(), hess.data(), rows,
                        begin, end, bins, part_g, part_h);
  }

  double g_left = 0.0, h_left = 0.0;
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    g_left += part_g[b] + part_g[bins + b] + part_g[2 * bins + b] +
              part_g[3 * bins + b];
    h_left += part_h[b] + part_h[bins + b] + part_h[2 * bins + b] +
              part_h[3 * bins + b];
    const double g_right = g_total - g_left;
    const double h_right = h_total - h_left;
    if (h_left < params.min_child_weight ||
        h_right < params.min_child_weight) {
      continue;
    }
    const double gain =
        0.5 * (ScoreHalf(g_left, h_left, params.lambda) +
               ScoreHalf(g_right, h_right, params.lambda) - parent_score) -
        params.gamma;
    if (gain > best.gain || (!best.found && gain > 0.0)) {
      best.found = true;
      best.feature = feature;
      // Cuts are data midpoints, so the stored threshold matches what the
      // exact scan would write whenever the bin budget holds every
      // distinct value.
      best.threshold = column.cuts[b];
      best.gain = gain;
    }
  }
  return best;
}

RegressionTree::SplitDecision RegressionTree::ScanFeatureExact(
    const Matrix& x, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end, std::size_t feature,
    const TreeParams& params, double g_total, double h_total,
    double parent_score) const {
  SplitDecision best;
  std::vector<std::pair<double, std::size_t>> sorted;
  sorted.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    sorted.emplace_back(x.at(rows[i], feature), rows[i]);
  }
  std::sort(sorted.begin(), sorted.end());
  if (sorted.front().first == sorted.back().first) return best;  // constant

  double g_left = 0.0, h_left = 0.0;
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    g_left += grad[sorted[i].second];
    h_left += hess[sorted[i].second];
    if (sorted[i].first == sorted[i + 1].first) continue;  // no boundary
    const double g_right = g_total - g_left;
    const double h_right = h_total - h_left;
    if (h_left < params.min_child_weight ||
        h_right < params.min_child_weight) {
      continue;
    }
    const double gain =
        0.5 * (ScoreHalf(g_left, h_left, params.lambda) +
               ScoreHalf(g_right, h_right, params.lambda) - parent_score) -
        params.gamma;
    if (gain > best.gain || (!best.found && gain > 0.0)) {
      best.found = true;
      best.feature = feature;
      best.threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      best.gain = gain;
    }
  }
  return best;
}

RegressionTree::SplitDecision RegressionTree::ScanFeatureHistogram(
    const Matrix& x, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end, std::size_t feature,
    const TreeParams& params, double g_total, double h_total,
    double parent_score) const {
  SplitDecision best;
  const auto bins =
      static_cast<std::size_t>(std::max(2, params.histogram_bins));
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = begin; i < end; ++i) {
    const double v = x.at(rows[i], feature);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!(hi > lo)) return best;

  std::vector<double> bin_g(bins, 0.0), bin_h(bins, 0.0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t r = rows[i];
    auto b = static_cast<std::size_t>((x.at(r, feature) - lo) / width);
    if (b >= bins) b = bins - 1;
    bin_g[b] += grad[r];
    bin_h[b] += hess[r];
  }

  double g_left = 0.0, h_left = 0.0;
  for (std::size_t b = 0; b + 1 < bins; ++b) {
    g_left += bin_g[b];
    h_left += bin_h[b];
    const double g_right = g_total - g_left;
    const double h_right = h_total - h_left;
    if (h_left < params.min_child_weight ||
        h_right < params.min_child_weight) {
      continue;
    }
    const double gain =
        0.5 * (ScoreHalf(g_left, h_left, params.lambda) +
               ScoreHalf(g_right, h_right, params.lambda) - parent_score) -
        params.gamma;
    if (gain > best.gain || (!best.found && gain > 0.0)) {
      best.found = true;
      best.feature = feature;
      best.threshold = lo + width * static_cast<double>(b + 1);
      best.gain = gain;
    }
  }
  return best;
}

RegressionTree::SplitDecision RegressionTree::FindSplitExact(
    const Matrix& x, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end,
    const std::vector<std::size_t>& features, const TreeParams& params,
    double g_total, double h_total) const {
  const double parent_score = ScoreHalf(g_total, h_total, params.lambda);

  // Within a feature ties keep the earliest boundary and across features
  // the strict > keeps the earliest feature.
  SplitDecision best;
  for (const std::size_t feature : features) {
    best.Consider(ScanFeatureExact(x, grad, hess, rows, begin, end, feature,
                                   params, g_total, h_total, parent_score));
  }
  if (best.found && best.gain <= 0.0) best.found = false;
  return best;
}

RegressionTree::SplitDecision RegressionTree::FindSplitHistogram(
    const Matrix& x, const std::vector<double>& grad,
    const std::vector<double>& hess, const std::vector<std::size_t>& rows,
    std::size_t begin, std::size_t end,
    const std::vector<std::size_t>& features, const TreeParams& params,
    double g_total, double h_total) const {
  const double parent_score = ScoreHalf(g_total, h_total, params.lambda);

  SplitDecision best;
  for (const std::size_t feature : features) {
    best.Consider(ScanFeatureHistogram(x, grad, hess, rows, begin, end,
                                       feature, params, g_total, h_total,
                                       parent_score));
  }
  if (best.found && best.gain <= 0.0) best.found = false;
  return best;
}

double RegressionTree::Predict(std::span<const double> row) const {
  if (nodes_.empty()) return 0.0;
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    node = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                   : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].weight;
}

double RegressionTree::AccumulateContributions(
    std::span<const double> row, double scale,
    std::vector<double>* contributions) const {
  if (nodes_.empty()) return 0.0;
  std::int32_t node = 0;
  const double base = nodes_[0].weight * scale;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    const std::int32_t child =
        row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                : n.right;
    const double delta = nodes_[static_cast<std::size_t>(child)].weight -
                         n.weight;
    (*contributions)[static_cast<std::size_t>(n.feature)] += delta * scale;
    node = child;
  }
  return base;
}

std::int32_t RegressionTree::LeafFor(std::span<const double> row) const {
  if (nodes_.empty()) return -1;
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    node = row[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                   : n.right;
  }
  return node;
}

double RegressionTree::PredictFrameRow(const TrainingFrame& frame,
                                       std::size_t row) const {
  if (nodes_.empty()) return 0.0;
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    const double v =
        frame.column(static_cast<std::size_t>(n.feature)).values[row];
    node = v <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].weight;
}

std::int32_t RegressionTree::LeafForFrameRow(const TrainingFrame& frame,
                                             std::size_t row) const {
  if (nodes_.empty()) return -1;
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    const double v =
        frame.column(static_cast<std::size_t>(n.feature)).values[row];
    node = v <= n.threshold ? n.left : n.right;
  }
  return node;
}

void RegressionTree::AppendFlat(std::int32_t base,
                                std::vector<std::int32_t>* feature,
                                std::vector<double>* threshold,
                                std::vector<std::int32_t>* left,
                                std::vector<std::int32_t>* right,
                                std::vector<double>* weight) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (nodes_.empty()) {
    feature->push_back(0);
    threshold->push_back(kInf);
    left->push_back(base);
    right->push_back(base);
    weight->push_back(0.0);
    return;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    const auto self = base + static_cast<std::int32_t>(i);
    if (node.feature < 0) {
      // Leaf self-loop: v <= +inf keeps the row parked here (a NaN
      // compares false and takes `right`, which is also self).
      feature->push_back(0);
      threshold->push_back(kInf);
      left->push_back(self);
      right->push_back(self);
    } else {
      feature->push_back(node.feature);
      threshold->push_back(node.threshold);
      left->push_back(base + node.left);
      right->push_back(base + node.right);
    }
    weight->push_back(node.weight);
  }
}

void RegressionTree::AccumulateGains(std::vector<double>* gains) const {
  for (const Node& node : nodes_) {
    if (node.feature >= 0) {
      (*gains)[static_cast<std::size_t>(node.feature)] += node.gain;
    }
  }
}

std::size_t RegressionTree::num_leaves() const {
  std::size_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.feature < 0) ++leaves;
  }
  return leaves;
}

int RegressionTree::DepthOf(std::int32_t node) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.feature < 0) return 0;
  return 1 + std::max(DepthOf(n.left), DepthOf(n.right));
}

int RegressionTree::depth() const {
  return nodes_.empty() ? 0 : DepthOf(0);
}

void RegressionTree::Save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "tree " << nodes_.size() << "\n";
  for (const Node& node : nodes_) {
    out << node.feature << ' ' << node.left << ' ' << node.right << ' '
        << node.threshold << ' ' << node.weight << ' ' << node.gain << "\n";
  }
}

StatusOr<RegressionTree> RegressionTree::Load(std::istream& in) {
  std::string tag;
  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "tree") {
    return Status::InvalidArgument("bad tree header");
  }
  if (count > 10'000'000) {
    return Status::OutOfRange("implausible tree node count");
  }
  RegressionTree tree;
  tree.nodes_.resize(count);
  for (Node& node : tree.nodes_) {
    if (!(in >> node.feature >> node.left >> node.right >> node.threshold >>
          node.weight >> node.gain)) {
      return Status::InvalidArgument("truncated tree node list");
    }
    const auto limit = static_cast<std::int32_t>(count);
    if (node.left >= limit || node.right >= limit) {
      return Status::OutOfRange("tree child index out of range");
    }
  }
  return tree;
}

}  // namespace domd
