#include "trace.h"

#include <cstdio>

namespace perfbench {

std::size_t TraceRecorder::Begin(const std::string& name,
                                 std::int64_t request) {
  Span span;
  span.name = name;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.request = request;
  span.start_ms = NowMs();
  span.end_ms = span.start_ms;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  self_cache_.clear();
  return spans_.size() - 1;
}

void TraceRecorder::End(std::size_t index) {
  spans_[index].end_ms = NowMs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

const std::vector<double>& TraceRecorder::Selfs() const {
  if (self_cache_.size() != spans_.size()) self_cache_ = SelfTimes(spans_);
  return self_cache_;
}

double TraceRecorder::MedianDuration(const std::string& name) const {
  std::vector<double> values;
  for (const Span& span : spans_) {
    if (span.name == name) values.push_back(span.end_ms - span.start_ms);
  }
  return Median(std::move(values));
}

double TraceRecorder::SumSelf(const std::vector<std::string>& names) const {
  const std::vector<double>& self = Selfs();
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    for (const std::string& name : names) {
      if (spans_[i].name == name) total += self[i];
    }
  }
  return total;
}

double TraceRecorder::SumDuration(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_ms - span.start_ms;
  }
  return total;
}

bool TraceRecorder::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double>& self = Selfs();
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %lld, \"parent\": %lld, \"request\": %lld, "
                 "\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"self_ms\": %.6f}%s\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 s.start_ms, s.end_ms, self[i],
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
