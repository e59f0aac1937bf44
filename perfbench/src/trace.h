// In-memory span recorder of the traced run. Spans are recorded around the
// benchmark's calls into each layer's public functions, kept in memory and
// written out once when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class TraceRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  TraceRecorder() : epoch_(Clock::now()) {}

  /// Opens a span under the innermost open span (or as a root) and
  /// returns its index.
  std::size_t Begin(const std::string& name, std::int64_t request);
  /// Closes the span opened by Begin (spans close in LIFO order).
  void End(std::size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Median duration of the spans called `name`, in ms; 0 when there are
  /// none.
  double MedianDuration(const std::string& name) const;
  /// Summed self time of every span whose name is in `names`.
  double SumSelf(const std::vector<std::string>& names) const;
  double SumDuration(const std::string& name) const;

  /// Writes every span as one JSON document to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }
  const std::vector<double>& Selfs() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  mutable std::vector<double> self_cache_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const std::string& name,
             std::int64_t request)
      : recorder_(recorder), index_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  std::size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
