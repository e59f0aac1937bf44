// Self-test of the benchmark's measurement code: percentiles, histogram
// quantiles, span self time and the max_rps search. Exits non-zero on the
// first failed check. Run: perfbench_selftest (perfbench/run.py runs it
// before every benchmark run).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Span;

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  Check(Near(perfbench::Percentile(v, 50), 50), "p50 of 1..100 is 50");
  Check(Near(perfbench::Percentile(v, 99), 99), "p99 of 1..100 is 99");
  Check(Near(perfbench::Percentile(v, 100), 100), "p100 is the max");
  Check(Near(perfbench::Percentile(v, 0), 1), "p0 is the min");
  Check(Near(perfbench::Percentile({7}, 99), 7), "one sample");
  Check(Near(perfbench::Percentile({}, 50), 0), "empty is 0");
  Check(perfbench::SamplesBeyond(v, 99) == 1, "one sample beyond p99");
  std::vector<double> missing = {1, 2, 3,
                                 std::numeric_limits<double>::infinity()};
  Check(std::isinf(perfbench::Percentile(missing, 99)),
        "an unanswered request ranks last");
  Check(Near(perfbench::Median({3, 1, 2, 4}), 2), "even-count median");
}

void TestHistogramQuantile() {
  const std::vector<double> bounds = {1, 2, 4};
  // 10 in (0,1], 10 in (1,2], 0 in (2,4], 0 in +Inf.
  const std::vector<std::uint64_t> counts = {10, 10, 0, 0};
  Check(Near(perfbench::HistogramQuantile(bounds, counts, 0.5), 1.0),
        "median at the first bucket's top");
  Check(Near(perfbench::HistogramQuantile(bounds, counts, 0.75), 1.5),
        "interpolates inside a bucket");
  Check(Near(perfbench::HistogramQuantile(bounds, {0, 0, 0, 5}, 0.5), 4.0),
        "+Inf bucket answers its lower bound");
  Check(Near(perfbench::HistogramQuantile(bounds, {0, 0, 0, 0}, 0.5), 0.0),
        "empty histogram is 0");
}

void TestSelfTimes() {
  // root [0,10] with children [1,3] and [2,5] (overlapping) and [6,7];
  // grandchild [6.5,7] under the third child.
  std::vector<Span> spans = {
      {"root", 0, 10, 0, -1, 1}, {"a", 1, 3, 1, 0, 1},
      {"b", 2, 5, 2, 0, 1},      {"c", 6, 7, 3, 0, 1},
      {"d", 6.5, 7, 4, 3, 1},
  };
  const std::vector<double> self = perfbench::SelfTimes(spans);
  Check(Near(self[0], 10 - 4 - 1), "root minus union of children");
  Check(Near(self[1], 2), "leaf self == duration");
  Check(Near(self[3], 0.5), "child minus grandchild");
  Check(Near(self[4], 0.5), "grandchild leaf");
  // A child sticking out of its parent only covers the overlap.
  std::vector<Span> clipped = {{"p", 0, 2, 0, -1, 1}, {"c", 1, 5, 1, 0, 1}};
  Check(Near(perfbench::SelfTimes(clipped)[0], 1), "child clipped to parent");
}

void TestMaxRpsSearch() {
  // A system whose p99 crosses the 10 ms limit at 1000 rps.
  const auto system = [](double rate) {
    perfbench::RateProbe p;
    p.offered_rps = rate;
    p.p99_ms = rate < 1000 ? 5.0 : 50.0;
    return p;
  };
  perfbench::RateSearch search;
  search.start_rps = 200;
  search.growth = 1.5;
  search.resolution = 0.01;
  search.max_probes = 40;
  search.limit_ms = 10;
  std::vector<perfbench::RateProbe> history;
  const double found = perfbench::SearchMaxRps(search, system, &history);
  Check(found < 1000 && found >= 990, "search converges under the knee");
  for (std::size_t i = 1; i < history.size(); ++i) {
    Check(history[i].offered_rps != history[i - 1].offered_rps,
          "no probe repeats its predecessor");
  }

  // Starting above the knee walks down first.
  search.start_rps = 5000;
  history.clear();
  const double down = perfbench::SearchMaxRps(search, system, &history);
  Check(down < 1000 && down >= 990, "search from above converges");

  // Failures and generator lag fail a probe even under the limit.
  perfbench::RateProbe failed;
  failed.p99_ms = 1;
  failed.failed = 1;
  Check(!failed.Passes(10), "a failed request fails the probe");
  perfbench::RateProbe lagged;
  lagged.p99_ms = 1;
  lagged.lagged = true;
  Check(!lagged.Passes(10), "generator lag fails the probe");

  // A known passing rate is the floor the bisection starts from.
  search.start_rps = 5000;
  search.known_pass_rps = 100;
  search.max_probes = 40;
  history.clear();
  const double floored = perfbench::SearchMaxRps(search, system, &history);
  Check(floored < 1000 && floored >= 990, "search from a known floor");
  Check(history.size() > 1 && history[1].offered_rps == 2550,
        "the first bisection uses the known floor");
  search.max_probes = 1;
  Check(perfbench::SearchMaxRps(search, system, nullptr) == 100,
        "no better probe keeps the known rate");
  search.known_pass_rps = 0;

  // Nothing passes: 0.
  search.max_probes = 5;
  const double none = perfbench::SearchMaxRps(
      search,
      [](double rate) {
        perfbench::RateProbe p;
        p.offered_rps = rate;
        p.p99_ms = 100;
        return p;
      },
      nullptr);
  Check(none == 0.0, "no passing rate reports 0");

  // The probe budget bounds the search.
  search.max_probes = 3;
  history.clear();
  perfbench::SearchMaxRps(search, system, &history);
  Check(history.size() == 3, "max_probes bounds the probes made");
}

}  // namespace

int main() {
  TestPercentile();
  TestHistogramQuantile();
  TestSelfTimes();
  TestMaxRpsSearch();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
