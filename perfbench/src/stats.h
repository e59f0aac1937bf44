// Pure measurement helpers of the DoMD benchmark: percentiles, quartile
// spreads, bucketed-histogram quantiles, span self time and the max_rps
// search. Kept free of I/O so perfbench_selftest can pin them down.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`, which need not be
/// sorted. Infinite samples (requests that never answered) rank last. An
/// empty input yields 0.
double Percentile(std::vector<double> samples, double p);

/// Median, i.e. Percentile(samples, 50).
double Median(std::vector<double> samples);

/// Number of samples strictly above the p-th percentile: the guide's
/// "at least ten samples beyond it" check for reporting a tail.
std::size_t SamplesBeyond(const std::vector<double>& samples, double p);

/// Quantile of a cumulative bucketed histogram (Prometheus
/// histogram_quantile semantics): `upper_bounds` ascending, `counts[i]` the
/// non-cumulative count of bucket i, with one extra trailing +Inf bucket.
/// Linear interpolation inside the bucket; the +Inf bucket answers its
/// lower bound.
double HistogramQuantile(const std::vector<double>& upper_bounds,
                         const std::vector<std::uint64_t>& counts, double q);

/// One recorded span. Times are in milliseconds from the recorder's epoch.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span.
  std::int64_t request = 0;  ///< request id shared by one request's spans.
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
/// Result is aligned with `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// One step of the max_rps search.
struct RateProbe {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  ///< answers per second the probe measured.
  double p99_ms = 0.0;
  std::size_t failed = 0;  ///< errors, refusals and missing answers.
  bool lagged = false;     ///< generator could not keep the schedule.
  /// Pass: p99 under the limit, no failure, generator on schedule.
  bool Passes(double limit_ms) const {
    return failed == 0 && !lagged && p99_ms < limit_ms;
  }
};

/// Search settings: start at `start_rps`, grow by `growth` while probes
/// pass, then bisect the bracket until it is narrower than `resolution`
/// (relative) or `max_probes` probes ran. `known_pass_rps`, when positive,
/// is a rate already measured to pass: the floor the bisection starts from.
struct RateSearch {
  double start_rps = 1.0;
  double known_pass_rps = 0.0;
  double growth = 1.5;
  double resolution = 0.02;
  std::size_t max_probes = 12;
  double limit_ms = 1.0;
};

/// Highest passing offered rate found by `probe`, or `known_pass_rps` when
/// no probe beat it (0 when nothing passed at all). Every probe made is
/// appended to `history`.
double SearchMaxRps(const RateSearch& search,
                    const std::function<RateProbe(double)>& probe,
                    std::vector<RateProbe>* history);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
