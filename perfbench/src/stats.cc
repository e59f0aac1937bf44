#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

std::size_t SamplesBeyond(const std::vector<double>& samples, double p) {
  const double cut = Percentile(samples, p);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = seen + static_cast<double>(counts[i]);
    if (next >= rank && counts[i] > 0) {
      const double lo = i == 0 ? 0.0 : upper_bounds[i - 1];
      if (i >= upper_bounds.size()) return lo;  // +Inf bucket.
      const double hi = upper_bounds[i];
      const double within = (rank - seen) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    seen = next;
  }
  return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    const auto it = index_of.find(span.parent);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    // Clip to the parent: a child cannot cover time outside its parent.
    const double lo = std::max(span.start_ms, parent.start_ms);
    const double hi = std::min(span.end_ms, parent.end_ms);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ms - spans[i].start_ms) - covered;
  }
  return self;
}

double SearchMaxRps(const RateSearch& search,
                    const std::function<RateProbe(double)>& probe,
                    std::vector<RateProbe>* history) {
  double lo = search.known_pass_rps;  // highest passing rate seen.
  double hi = std::numeric_limits<double>::infinity();  // lowest failing.
  double rate = search.start_rps;
  for (std::size_t n = 0; n < search.max_probes && rate > 0.0; ++n) {
    const RateProbe result = probe(rate);
    if (history != nullptr) history->push_back(result);
    if (result.Passes(search.limit_ms)) {
      lo = std::max(lo, rate);
    } else {
      hi = std::min(hi, rate);
    }
    if (lo > 0.0 && std::isfinite(hi) &&
        (hi - lo) <= search.resolution * lo) {
      break;
    }
    if (!std::isfinite(hi)) {
      rate = lo * search.growth;
    } else if (lo == 0.0) {
      rate = hi / search.growth;
    } else {
      rate = 0.5 * (lo + hi);
    }
  }
  return lo;
}

}  // namespace perfbench
