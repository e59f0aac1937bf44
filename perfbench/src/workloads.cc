#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <thread>

#include "cache/fingerprint.h"
#include "cluster/upstream.h"
#include "gen.h"
#include "harness.h"
#include "ingest/data_store.h"
#include "serve/json.h"
#include "stats.h"

namespace perfbench {

using domd::JsonValue;
using domd::ServePrediction;
using domd::Status;
using domd::StatusOr;

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

namespace {

std::string Format(const char* fmt, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

/// Prints one per-operation metric with its unit and sample count.
void Report(Outcome* out, const std::string& name, double value,
            const std::string& unit, std::size_t samples) {
  out->Note(Format("metric %-22s %14.6f %-6s n=%zu", name.c_str(), value,
                   unit.c_str(), samples));
}

void ReportInputs(Outcome* out, const InputProperties& props,
                  std::uint64_t stream_hash) {
  out->Note(Format("input stream_hash %016" PRIx64, stream_hash));
  out->Note(Format("input request_bytes q1=%.0f q2=%.0f q3=%.0f max=%.0f",
                   Percentile(props.request_bytes, 25),
                   Percentile(props.request_bytes, 50),
                   Percentile(props.request_bytes, 75),
                   Percentile(props.request_bytes, 100)));
  if (!props.t_star_histogram.empty()) {
    std::string hist = "input t_star_histogram";
    for (const auto& [t, n] : props.t_star_histogram) {
      hist += Format(" %g:%zu", t, n);
    }
    out->Note(hist);
  }
  out->Note(Format("input repeated_key_share %.4f", props.repeated_share));
}

void ReportErrorRate(Outcome* out) {
  const double rate = out->attempted == 0
                          ? 0.0
                          : static_cast<double>(out->failed) /
                                static_cast<double>(out->attempted);
  Report(out, "error_rate", rate, "ratio", out->attempted);
}

/// A started server stack plus the port clients talk to.
struct Stack {
  std::vector<std::unique_ptr<ServerProcess>> processes;
  int entry_port = 0;
  /// Peak RSS of the instances this run started and stopped before this
  /// one.
  std::vector<double> earlier_rss_mb;

  double PeakRssMb() const {
    double total = 0.0;
    for (const auto& p : processes) total += p->PeakRssMb();
    return total;
  }
  void Stop() {
    // Entry first (the router), then the servers behind it.
    for (auto it = processes.rbegin(); it != processes.rend(); ++it) {
      (*it)->Stop();
    }
    processes.clear();
  }
};

using StackStarter = std::function<StatusOr<Stack>(const std::string& dir)>;

/// Starts the workload's stack kSetupRepeats times (once when tracing) and
/// calls `measure(stack, last)` on every instance; the last one is left
/// running for the caller. setup_s is the median start-to-ready time.
/// Spreading the fixed-rate measurement over several server instances
/// averages out per-process placement effects on a shared machine.
StatusOr<Stack> StartEach(const Context& ctx, const StackStarter& start,
                          const std::function<void(Stack&, bool)>& measure,
                          Outcome* out) {
  const int repeats = ctx.options.trace ? 1 : kSetupRepeats;
  std::vector<double> seconds;
  std::vector<double> rss_mb;
  Stack stack;
  for (int attempt = 0; attempt < repeats; ++attempt) {
    if (attempt > 0) {
      rss_mb.push_back(stack.PeakRssMb());
      stack.Stop();
    }
    const std::string dir =
        ctx.options.work_dir + "/stack" + std::to_string(attempt);
    std::filesystem::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    auto started = start(dir);
    if (!started.ok()) return started.status();
    stack = std::move(*started);
    seconds.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    measure(stack, attempt + 1 == repeats);
    if (!out->invalid.empty()) break;
  }
  stack.earlier_rss_mb = std::move(rss_mb);
  if (!ctx.options.trace) {
    out->Add("setup_s", Median(seconds), "s", seconds.size());
    Report(out, "setup_s", Median(seconds), "s", seconds.size());
  }
  return stack;
}

/// Stops the last instance; peak_rss_mb is the median over instances of
/// each instance's summed peak RSS.
void FinishStack(Stack* stack, Outcome* out, bool trace) {
  std::vector<double> rss = stack->earlier_rss_mb;
  rss.push_back(stack->PeakRssMb());
  stack->Stop();
  if (!trace) {
    out->Add("peak_rss_mb", Median(rss), "MiB", rss.size());
    Report(out, "peak_rss_mb", Median(rss), "MiB", rss.size());
  }
}

StatusOr<std::unique_ptr<ServerProcess>> StartServe(
    const Context& ctx, const std::string& log,
    std::vector<std::string> extra) {
  std::vector<std::string> args = {"--bundle", ctx.bundle_dir};
  args.insert(args.end(), extra.begin(), extra.end());
  auto process =
      ServerProcess::Start(ctx.options.bin_dir + "/domd_serve", args, log);
  if (!process.ok()) return process.status();
  DOMD_RETURN_IF_ERROR(WaitReady((*process)->port(), 60000));
  return process;
}

/// Seconds of each fixed-rate phase run before its samples count, so the
/// micro-batcher and caches reach their steady state.
constexpr double kWarmupSeconds = 1.0;

/// Samples of a run's fixed-rate phases, one set per server instance.
struct FixedSamples {
  std::vector<std::vector<double>> latency_ms;  ///< per instance.
  std::vector<double> lag_ms;
  /// Answers per second from each phase's start to its last answer.
  std::vector<double> achieved_rps;

  void Add(const StreamResult& r, double rate, std::size_t first);

  /// Median over instances of each instance's median: robust to one
  /// instance caught in a noisy stretch of a shared machine.
  double InstanceMedian() const {
    std::vector<double> each;
    for (const auto& instance : latency_ms) each.push_back(Median(instance));
    return Median(each);
  }
  std::vector<double> Pooled() const {
    std::vector<double> all;
    for (const auto& instance : latency_ms) {
      all.insert(all.end(), instance.begin(), instance.end());
    }
    return all;
  }
};

/// Answers per second from the phase start to the phase's last answer.
double AchievedRps(const StreamResult& r, double rate, std::size_t first) {
  double last_ms = 0.0;
  for (std::size_t i = 0; i < r.index.size(); ++i) {
    if (!std::isfinite(r.latency_ms[i])) continue;
    const double due_ms =
        1000.0 * static_cast<double>(r.index[i] - first) / rate;
    last_ms = std::max(last_ms, due_ms + r.latency_ms[i]);
  }
  return last_ms == 0.0 ? 0.0
                        : static_cast<double>(r.answered) / (last_ms / 1000.0);
}

std::size_t CountNotOk(const StreamResult& r) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < r.index.size(); ++i) {
    if (!std::isfinite(r.latency_ms[i]) || !IsOk(r.responses[i])) ++n;
  }
  return n;
}

void FixedSamples::Add(const StreamResult& r, double rate,
                       std::size_t first) {
  latency_ms.emplace_back();
  for (std::size_t i = 0; i < r.index.size(); ++i) {
    const double due_s = static_cast<double>(r.index[i] - first) / rate;
    if (due_s < kWarmupSeconds) continue;
    latency_ms.back().push_back(r.latency_ms[i]);
    lag_ms.push_back(r.lag_ms[i]);
  }
  achieved_rps.push_back(AchievedRps(r, rate, first));
}

/// The generator-lag guard: a run whose generator ran late by more than
/// kMaxLagShare of the latency limit is invalid.
void GuardLag(const FixedSamples& fixed, double limit_ms, Outcome* out) {
  const double lag_p99 = Percentile(fixed.lag_ms, 99);
  if (lag_p99 > kMaxLagShare * limit_ms) {
    out->invalid = Format("generator lag p99 %.3f ms exceeds %.0f%% of the "
                          "%.1f ms limit",
                          lag_p99, 100 * kMaxLagShare, limit_ms);
  }
}

void AddClientMetrics(const FixedSamples& fixed, Outcome* out) {
  out->Add("client.lag_p99_ms", Percentile(fixed.lag_ms, 99), "ms",
           fixed.lag_ms.size());
  out->Add("client.achieved_rps", Median(fixed.achieved_rps), "1/s",
           fixed.achieved_rps.size());
}

/// Latency summary of the fixed-rate samples: the gated p50 (the median
/// over instances of each instance's median), plus the pooled per-operation
/// percentiles as report lines.
void AddLatencyMetrics(const FixedSamples& fixed, const std::string& op,
                       double rate, Outcome* out) {
  const std::vector<double> lat = fixed.Pooled();
  const std::size_t n = lat.size();
  out->Add("p50_ms", fixed.InstanceMedian(), "ms", n);
  Report(out, op + "_p50_ms", Median(lat), "ms", n);
  Report(out, op + "_p95_ms", Percentile(lat, 95), "ms", n);
  Report(out, op + "_p99_ms", Percentile(lat, 99), "ms", n);
  Report(out, "client.lag_p99_ms", Percentile(fixed.lag_ms, 99), "ms",
         fixed.lag_ms.size());
  out->Note(Format("fixed offered %.1f/s: %zu timed over %zu instances, "
                   "%zu beyond p99",
                   rate, n, fixed.latency_ms.size(), SamplesBeyond(lat, 99)));
}

/// A phase's outcome as a max_rps probe at `rate`.
RateProbe ProbeOf(const StreamResult& r, double rate, std::size_t first,
                  double limit_ms) {
  RateProbe probe;
  probe.offered_rps = rate;
  probe.achieved_rps = AchievedRps(r, rate, first);
  probe.p99_ms = Percentile(r.latency_ms, 99);
  probe.failed = CountNotOk(r);
  probe.lagged = Percentile(r.lag_ms, 99) > kMaxLagShare * limit_ms;
  return probe;
}

/// One max_rps search on one instance: probes of `probe(rate, seconds)`
/// spread over `seconds` from `start_rps`, above the instance's fixed-rate
/// phase (`fixed`), which counts as a probe already made.
double SearchOnce(double start_rps, const RateProbe& fixed, double limit_ms,
                  double seconds,
                  const std::function<RateProbe(double, double)>& probe,
                  Outcome* out) {
  RateSearch search;
  search.start_rps = start_rps;
  search.known_pass_rps = fixed.Passes(limit_ms) ? fixed.offered_rps : 0.0;
  search.growth = 1.25;
  search.resolution = 0.03;
  search.limit_ms = limit_ms;
  search.max_probes = 5;
  const double probe_seconds =
      seconds / static_cast<double>(search.max_probes);
  std::vector<RateProbe> history = {fixed};
  const double max_offered = SearchMaxRps(
      search, [&](double rate) { return probe(rate, probe_seconds); },
      &history);
  // Report what the best passing probe measured, not its nominal rate.
  double max_rps = 0.0;
  for (const RateProbe& p : history) {
    if (p.offered_rps == max_offered && p.Passes(limit_ms)) {
      max_rps = p.achieved_rps;
    }
  }
  for (const RateProbe& p : history) {
    out->Note(Format("probe offered %.1f/s achieved %.1f/s p99 %.3f ms "
                     "failed %zu lagged %d -> %s",
                     p.offered_rps, p.achieved_rps, p.p99_ms, p.failed,
                     p.lagged ? 1 : 0, p.Passes(limit_ms) ? "pass" : "fail"));
  }
  return max_rps;
}

/// max_rps is the median of the instances' searches. It is printed, not
/// gated: it tracks the host's capacity, which drifts between runs.
void ReportMaxRps(const std::vector<double>& searches, Outcome* out) {
  Report(out, "max_rps", Median(searches), "1/s", searches.size());
}

/// Every predict answer of a run, for verification after the stack stops.
struct AnswerLog {
  std::vector<std::size_t> index;
  std::vector<std::string> responses;

  /// Logs `r`. Fixed-phase answers all count as attempted and every
  /// non-ok one as failed; max_rps probes only log the ok answers, since a
  /// refusal above capacity fails the probe, not the run.
  void Add(const StreamResult& r, bool fixed, Outcome* out) {
    for (std::size_t i = 0; i < r.index.size(); ++i) {
      if (!fixed && !IsOk(r.responses[i])) continue;
      index.push_back(r.index[i]);
      responses.push_back(r.responses[i]);
      ++out->attempted;
    }
    if (fixed) out->failed += CountNotOk(r);
  }
};

/// An open-loop predict workload: on every instance a fixed-rate phase
/// over `connections`, then a max_rps search.
struct OpenLoopPredict {
  double fixed_rps = 1.0;
  double search_start_rps = 1.0;
  double limit_ms = 1.0;
  std::size_t connections = 4;
  std::function<const std::string&(std::size_t)> line;
};

void RunOpenLoopPredict(const Context& ctx, const OpenLoopPredict& w,
                        const StackStarter& start, AnswerLog* log,
                        Outcome* out) {
  const double total = ctx.options.seconds;
  const int repeats = ctx.options.trace ? 1 : kSetupRepeats;
  const double measure_seconds =
      (ctx.options.trace ? 0.25 : 0.5) * total / repeats;
  const double drain_ms = std::max(2000.0, 20.0 * w.limit_ms);
  std::vector<std::size_t> conns;
  for (std::size_t c = 0; c < w.connections; ++c) conns.push_back(c);
  const double search_seconds = 0.5 * total / repeats;
  std::size_t next = 0;
  FixedSamples fixed;
  std::vector<double> searches;

  auto stack = StartEach(
      ctx, start,
      [&](Stack& s, bool) {
        OpenLoopClient client(s.entry_port, w.connections);
        if (!client.ok()) {
          out->invalid = "cannot connect to the workload's entry port";
          return;
        }
        const auto phase = [&](double rate, double seconds, bool fixed_phase) {
          LoadStream stream{rate, conns, w.line, next};
          StreamResult r = client.Run({stream}, seconds, drain_ms, true)[0];
          log->Add(r, fixed_phase, out);
          next += r.index.size();
          return r;
        };
        const std::size_t first = next;
        const StreamResult r =
            phase(w.fixed_rps, kWarmupSeconds + measure_seconds, true);
        fixed.Add(r, w.fixed_rps, first);
        if (ctx.options.trace) return;
        searches.push_back(SearchOnce(
            w.search_start_rps, ProbeOf(r, w.fixed_rps, first, w.limit_ms),
            w.limit_ms, search_seconds,
            [&](double rate, double seconds) {
              const std::size_t probe_first = next;
              return ProbeOf(phase(rate, seconds, false), rate, probe_first,
                             w.limit_ms);
            },
            out));
      },
      out);
  if (!stack.ok()) {
    out->invalid = stack.status().ToString();
    return;
  }
  GuardLag(fixed, w.limit_ms, out);
  if (ctx.options.trace) {
    AddClientMetrics(fixed, out);
  } else {
    AddLatencyMetrics(fixed, "predict", w.fixed_rps, out);
    ReportMaxRps(searches, out);
  }
  FinishStack(&*stack, out, ctx.options.trace);
}

/// Runs `fn(i)` over [0, n) on a few threads (expected-answer computation
/// is the slow part of verification).
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace

// ---- shared verification -------------------------------------------------

bool PredictionMatches(const std::string& response,
                       const ServePrediction& expected) {
  auto parsed = JsonValue::Parse(response);
  if (!parsed.ok() || !parsed->BoolOr("ok", false)) return false;
  const JsonValue& r = *parsed;
  if (!SameBits(r.NumberOr("estimate_days", NAN), expected.estimate_days) ||
      !SameBits(r.NumberOr("band_low", NAN), expected.band_low) ||
      !SameBits(r.NumberOr("band_high", NAN), expected.band_high) ||
      !SameBits(r.NumberOr("t_star", NAN), expected.t_star) ||
      r.NumberOr("avail_id", -1) != static_cast<double>(expected.avail_id) ||
      r.NumberOr("num_steps", -1) !=
          static_cast<double>(expected.num_steps) ||
      r.StringOr("bundle_version", "") != expected.bundle_version) {
    return false;
  }
  const JsonValue* features = r.Find("top_features");
  if (features == nullptr || !features->is_array() ||
      features->items().size() != expected.top_features.size()) {
    return false;
  }
  for (std::size_t i = 0; i < expected.top_features.size(); ++i) {
    const JsonValue& f = features->items()[i];
    if (f.StringOr("name", "") != expected.top_features[i].feature_name ||
        !SameBits(f.NumberOr("contribution", NAN),
                  expected.top_features[i].contribution)) {
      return false;
    }
  }
  return true;
}

StatusOr<ServePrediction> ReferencePrediction(
    const domd::DomdEstimator& estimator, std::int64_t avail_id,
    double t_star, const std::string& version) {
  // The same assembly as ModelBundle::ScoreReferenceAvail.
  auto result = estimator.QueryAtLogicalTime(avail_id, t_star, 5);
  if (!result.ok()) return result.status();
  ServePrediction p;
  p.avail_id = avail_id;
  p.t_star = t_star;
  p.estimate_days = result->fused_estimate_days;
  p.num_steps = result->steps.size();
  p.band_low = result->steps.front().estimated_delay_days;
  p.band_high = p.band_low;
  for (const domd::DomdStepEstimate& step : result->steps) {
    p.band_low = std::min(p.band_low, step.estimated_delay_days);
    p.band_high = std::max(p.band_high, step.estimated_delay_days);
  }
  p.top_features = result->steps.back().top_features;
  p.bundle_version = version;
  return p;
}

// ---- detached_predict ----------------------------------------------------

void RunDetachedPredict(const Context& ctx, Outcome* out) {
  const DetachedRequests requests(ctx.fleet(), ctx.options.seed,
                                  kDetachedStreamLength);
  if (!ctx.options.trace) {
    ReportInputs(out, DescribeDetached(requests), requests.StreamHash());
  }
  OpenLoopPredict w;
  w.fixed_rps = kDetachedFixedRps;
  w.search_start_rps = kDetachedSearchStartRps;
  w.limit_ms = kDetachedLimitMs;
  w.line = [&requests](std::size_t i) -> const std::string& {
    return requests.Line(i);
  };
  AnswerLog log;
  RunOpenLoopPredict(
      ctx, w,
      [&](const std::string& dir) -> StatusOr<Stack> {
        Stack s;
        auto serve = StartServe(ctx, dir + "/serve.log", {"--port", "0"});
        if (!serve.ok()) return serve.status();
        s.entry_port = (*serve)->port();
        s.processes.push_back(std::move(*serve));
        return s;
      },
      &log, out);

  // Expected answers: a solo ScoreBatch per distinct request.
  std::vector<ServePrediction> expected(requests.distinct().size());
  std::vector<char> needed(expected.size(), 0);
  for (std::size_t i : log.index) needed[requests.DistinctIndex(i)] = 1;
  std::vector<char> scored(expected.size(), 0);
  ParallelFor(expected.size(), [&](std::size_t k) {
    if (!needed[k]) return;
    auto result = ctx.bundle->ScoreBatch({requests.DistinctRequest(k)});
    if (result[0].ok()) {
      expected[k] = *result[0];
      scored[k] = 1;
    }
  });
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < log.index.size(); ++i) {
    if (!IsOk(log.responses[i])) continue;  // counted when logged.
    const std::size_t k = requests.DistinctIndex(log.index[i]);
    if (!scored[k] || !PredictionMatches(log.responses[i], expected[k])) {
      ++wrong;
    }
  }
  out->failed += wrong;
  out->Note(Format("verify %zu answers against solo ScoreBatch: %zu wrong",
                   log.index.size(), wrong));
  if (!ctx.options.trace) ReportErrorRate(out);
}

// ---- routed_reference ----------------------------------------------------

void RunRoutedReference(const Context& ctx, Outcome* out) {
  const ReferenceRequests requests(ctx.fleet(), ctx.options.seed,
                                   kRoutedStreamLength, kRoutedZipfS);
  if (!ctx.options.trace) {
    ReportInputs(out, DescribeReference(requests), requests.StreamHash());
  }
  OpenLoopPredict w;
  w.fixed_rps = kRoutedFixedRps;
  w.search_start_rps = kRoutedSearchStartRps;
  w.limit_ms = kRoutedLimitMs;
  w.line = [&requests](std::size_t i) -> const std::string& {
    return requests.Line(i);
  };
  AnswerLog log;
  RunOpenLoopPredict(
      ctx, w,
      [&](const std::string& dir) -> StatusOr<Stack> {
        Stack s;
        std::string spec = "{\"vnodes\": 64, \"shards\": [";
        for (int shard = 0; shard < 2; ++shard) {
          auto serve = StartServe(
              ctx, dir + "/shard" + std::to_string(shard) + ".log",
              {"--port", "0"});
          if (!serve.ok()) return serve.status();
          spec += Format("%s{\"id\": %d, \"replicas\": [\"127.0.0.1:%d\"]}",
                         shard == 0 ? "" : ", ", shard, (*serve)->port());
          s.processes.push_back(std::move(*serve));
        }
        spec += "]}";
        std::ofstream(dir + "/cluster.json") << spec;
        auto router = ServerProcess::Start(
            ctx.options.bin_dir + "/domd_router",
            {"--cluster-spec", dir + "/cluster.json", "--port", "0"},
            dir + "/router.log");
        if (!router.ok()) return router.status();
        s.entry_port = (*router)->port();
        s.processes.push_back(std::move(*router));
        DOMD_RETURN_IF_ERROR(WaitReady(s.entry_port, 60000));
        return s;
      },
      &log, out);

  std::map<PredictKey, ServePrediction> expected;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < log.index.size(); ++i) {
    if (!IsOk(log.responses[i])) continue;
    const PredictKey& key = requests.Key(log.index[i]);
    auto it = expected.find(key);
    if (it == expected.end()) {
      auto p = ctx.bundle->ScoreReferenceAvail(requests.AvailId(log.index[i]),
                                               key.t_star, 5);
      if (!p.ok()) {
        ++wrong;
        continue;
      }
      it = expected.emplace(key, *p).first;
    }
    if (!PredictionMatches(log.responses[i], it->second)) ++wrong;
  }
  out->failed += wrong;
  out->Note(Format("verify %zu answers against ScoreReferenceAvail: %zu "
                   "wrong",
                   log.index.size(), wrong));
  if (!ctx.options.trace) ReportErrorRate(out);
}

// ---- ingest_freshness ----------------------------------------------------

namespace {

StatusOr<std::uint64_t> HexField(const JsonValue& value,
                                 const std::string& key) {
  const std::string text = value.StringOr(key, "");
  if (text.empty()) return Status::NotFound("no " + key);
  return std::strtoull(text.c_str(), nullptr, 16);
}

/// (last_seq, chain) of one replica, read through an empty replicate.
StatusOr<std::pair<std::uint64_t, std::uint64_t>> Position(int port) {
  auto r = Call(port, "{\"cmd\":\"replicate\",\"first_seq\":1,\"records\":[]}");
  if (!r.ok()) return r.status();
  if (!r->BoolOr("ok", false)) return Status::Internal(r->Serialize());
  auto chain = HexField(*r, "chain");
  if (!chain.ok()) return chain.status();
  return std::make_pair(
      static_cast<std::uint64_t>(r->NumberOr("last_seq", 0)), *chain);
}

/// End-of-run checks of one primary/follower pair: the follower's
/// (seq, chain) equals the primary's, and both stores' epochs equal the
/// fingerprint of the content the acked batches (in sequence order) build.
void VerifyIngestPair(const Context& ctx,
                      const std::vector<IngestBatch>& batches,
                      const std::map<std::uint64_t, std::size_t>& acked,
                      int primary_port, int follower_port, Outcome* out) {
  std::size_t failures = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  StatusOr<std::pair<std::uint64_t, std::uint64_t>> primary =
      Status::Unavailable("not read");
  StatusOr<std::pair<std::uint64_t, std::uint64_t>> follower =
      Status::Unavailable("not read");
  while (Clock::now() < deadline) {
    primary = Position(primary_port);
    follower = Position(follower_port);
    if (primary.ok() && follower.ok() && *primary == *follower) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const bool converged =
      primary.ok() && follower.ok() && *primary == *follower;
  if (!converged) ++failures;

  auto store = domd::DataStore::Open(ctx.fleet(), domd::DataStoreOptions{});
  bool contiguous = store.ok();
  std::uint64_t applied = 0;
  for (const auto& [last_seq, index] : acked) {
    if (!contiguous) break;
    contiguous =
        (*store)
            ->AppendBatch(batches[index % batches.size()].mutations, &applied)
            .ok() &&
        applied == last_seq;
  }
  const std::uint64_t fingerprint =
      contiguous
          ? domd::ComputeDatasetFingerprint((*store)->Snapshot()->data())
          : 0;
  bool epochs = contiguous && converged && primary->first == applied;
  for (int port : {primary_port, follower_port}) {
    auto fresh = Call(port, "{\"cmd\":\"freshness\"}");
    const auto epoch = fresh.ok() ? HexField(*fresh, "store_epoch")
                                  : StatusOr<std::uint64_t>(fresh.status());
    epochs = epochs && epoch.ok() && *epoch == fingerprint;
  }
  if (!epochs) ++failures;
  out->attempted += 2;
  out->failed += failures;
  out->Note(Format("verify %zu acked batches: follower (seq, chain) == "
                   "primary's: %s; store epochs == content fingerprint: %s",
                   acked.size(), converged ? "yes" : "NO",
                   epochs ? "yes" : "NO"));
}

}  // namespace

void RunIngestFreshness(const Context& ctx, Outcome* out) {
  const std::vector<IngestBatch> batches = MakeIngestBatches(
      ctx.fleet(), ctx.options.seed, kIngestStreamLength, kIngestRowsPerBatch,
      kIngestUpdateShare);
  if (!ctx.options.trace) {
    ReportInputs(out, DescribeIngest(batches), BatchesHash(batches));
  }
  const double total = ctx.options.seconds;
  const int repeats = ctx.options.trace ? 1 : kSetupRepeats;
  const double measure_seconds =
      (ctx.options.trace ? 0.25 : 0.5) * total / repeats;
  const std::string freshness_line = "{\"cmd\":\"freshness\"}\n";
  int primary_port = 0;
  int follower_port = 0;
  std::size_t next_batch = 0;
  std::size_t next_probe = 0;
  const double search_seconds = 0.5 * total / repeats;
  FixedSamples acks;
  FixedSamples probes;
  std::vector<double> searches;

  auto stack = StartEach(
      ctx,
      [&](const std::string& dir) -> StatusOr<Stack> {
        primary_port = PickFreePort();
        follower_port = PickFreePort();
        const std::string merge = std::to_string(kMergeThreshold);
        Stack s;
        auto follower = StartServe(
            ctx, dir + "/follower.log",
            {"--port", std::to_string(follower_port), "--ingest-log",
             dir + "/follower.ingest", "--merge-threshold", merge,
             "--repl-peers", "127.0.0.1:" + std::to_string(primary_port),
             "--repl-quorum", "2"});
        if (!follower.ok()) return follower.status();
        s.processes.push_back(std::move(*follower));
        auto primary = StartServe(
            ctx, dir + "/primary.log",
            {"--port", std::to_string(primary_port), "--ingest-log",
             dir + "/primary.ingest", "--merge-threshold", merge,
             "--repl-peers", "127.0.0.1:" + std::to_string(follower_port),
             "--repl-quorum", "2", "--repl-role", "primary"});
        if (!primary.ok()) return primary.status();
        s.processes.push_back(std::move(*primary));
        s.entry_port = primary_port;
        // Ready means the primary has taken the write path.
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (Clock::now() < deadline) {
          auto health = Call(primary_port, "{\"cmd\":\"health\"}");
          if (health.ok() &&
              health->StringOr("ingest_role", "") == "primary") {
            return s;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return Status::DeadlineExceeded("primary never promoted");
      },
      [&](Stack& s, bool) {
        OpenLoopClient client(s.entry_port, 3);
        if (!client.ok()) {
          out->invalid = "cannot connect to the primary";
          return;
        }
        // Acked batches of this pair by last sequence number: the order
        // the primary applied them in.
        std::map<std::uint64_t, std::size_t> acked;
        const auto phase = [&](double rate, double seconds, bool fixed) {
          LoadStream ingest{rate, {0, 1},
                            [&](std::size_t i) -> const std::string& {
                              return batches[i % batches.size()].line;
                            },
                            next_batch};
          LoadStream fresh{kFreshnessRps, {2},
                           [&](std::size_t) -> const std::string& {
                             return freshness_line;
                           },
                           next_probe};
          std::vector<StreamResult> r =
              client.Run({ingest, fresh}, seconds, 10000.0, true);
          next_batch += r[0].index.size();
          next_probe += r[1].index.size();
          for (std::size_t i = 0; i < r[0].index.size(); ++i) {
            auto parsed = JsonValue::Parse(r[0].responses[i]);
            if (parsed.ok() && parsed->BoolOr("ok", false)) {
              acked[static_cast<std::uint64_t>(
                  parsed->NumberOr("last_seq", 0))] = r[0].index[i];
            }
          }
          if (fixed) {
            out->attempted += r[0].index.size() + r[1].index.size();
            out->failed += CountNotOk(r[0]) + CountNotOk(r[1]);
          } else {
            out->attempted += r[0].answered + r[1].answered;
          }
          return r;
        };
        const std::size_t first_batch = next_batch;
        const std::size_t first_probe = next_probe;
        const std::vector<StreamResult> fixed =
            phase(kIngestFixedRps, kWarmupSeconds + measure_seconds, true);
        acks.Add(fixed[0], kIngestFixedRps, first_batch);
        probes.Add(fixed[1], kFreshnessRps, first_probe);
        if (!ctx.options.trace) {
          searches.push_back(SearchOnce(
              kIngestSearchStartRps,
              ProbeOf(fixed[0], kIngestFixedRps, first_batch, kIngestLimitMs),
              kIngestLimitMs, search_seconds,
              [&](double rate, double seconds) {
                const std::size_t probe_first = next_batch;
                return ProbeOf(phase(rate, seconds, false)[0], rate,
                               probe_first, kIngestLimitMs);
              },
              out));
        }
        VerifyIngestPair(ctx, batches, acked, primary_port, follower_port,
                         out);
      },
      out);
  if (!stack.ok()) {
    out->invalid = stack.status().ToString();
    return;
  }
  GuardLag(acks, kIngestLimitMs, out);
  if (ctx.options.trace) {
    AddClientMetrics(acks, out);
  } else {
    AddLatencyMetrics(acks, "ingest_ack", kIngestFixedRps, out);
    const std::vector<double> fl = probes.Pooled();
    Report(out, "freshness_p50_ms", Median(fl), "ms", fl.size());
    Report(out, "freshness_p90_ms", Percentile(fl, 90), "ms", fl.size());
    ReportMaxRps(searches, out);
  }
  FinishStack(&*stack, out, ctx.options.trace);
  if (!ctx.options.trace) ReportErrorRate(out);
}

// ---- retrain -------------------------------------------------------------

namespace {

/// The closed loop's single persistent connection.
class ClosedLoop {
 public:
  explicit ClosedLoop(int port) {
    auto conn = domd::cluster::UpstreamConn::Dial(
        {"127.0.0.1", port}, Clock::now() + std::chrono::seconds(5));
    if (conn.ok()) conn_ = std::move(*conn);
  }
  bool ok() const { return conn_.valid(); }
  /// Sends `line` (no newline) and returns the answer line.
  StatusOr<std::string> Call(const std::string& line) {
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    DOMD_RETURN_IF_ERROR(conn_.SendLine(line, deadline));
    return conn_.ReadLine(deadline);
  }

 private:
  domd::cluster::UpstreamConn conn_;
};

std::string WithoutNewline(std::string line) {
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

}  // namespace

void RunRetrain(const Context& ctx, Outcome* out) {
  const std::vector<IngestBatch> deltas = MakeIngestBatches(
      ctx.fleet(), ctx.options.seed, kRetrainMaxRounds, kRetrainDeltaRows,
      1.0);
  const ReferenceRequests probes(ctx.fleet(), ctx.options.seed,
                                 kRetrainMaxRounds, 0.0);
  if (!ctx.options.trace) {
    ReportInputs(out, DescribeIngest(deltas), BatchesHash(deltas));
  }
  // Round k of every instance ingests delta k into a fresh store, so
  // snapshot k (and its expected answer) is the same on every instance.
  struct Round {
    std::size_t k = 0;
    double retrain_ms = 0.0;
    double ingest_ms = 0.0;
    double probe_ms = 0.0;
    bool ok = false;
    std::string epoch;
    std::string probe_response;
  };
  std::vector<std::vector<Round>> instances;
  std::vector<double> lag;
  double elapsed_s = 0.0;
  // A fixed number of rounds per instance (sized from --seconds and the
  // seed commit's round time), so every commit does the same work and
  // grows the same caches.
  const int repeats = ctx.options.trace ? 1 : kSetupRepeats;
  const auto rounds_per_instance = std::max<std::size_t>(
      3, static_cast<std::size_t>((ctx.options.trace ? 0.25 : 1.0) *
                                  ctx.options.seconds /
                                  (repeats * kRetrainRoundSeconds)));

  auto stack = StartEach(
      ctx,
      [&](const std::string& dir) -> StatusOr<Stack> {
        Stack s;
        auto serve = StartServe(ctx, dir + "/serve.log",
                                {"--port", "0", "--ingest-log",
                                 dir + "/ingest.log", "--retrain-root",
                                 dir + "/retrain"});
        if (!serve.ok()) return serve.status();
        s.entry_port = (*serve)->port();
        s.processes.push_back(std::move(*serve));
        return s;
      },
      [&](Stack& s, bool) {
        ClosedLoop loop(s.entry_port);
        if (!loop.ok()) {
          out->invalid = "cannot connect";
          return;
        }
        // The first round warms the instance up and is not timed.
        std::vector<Round>& rounds = instances.emplace_back();
        const Clock::time_point start = Clock::now();
        Clock::time_point last_answer = start;
        while (rounds.size() <
               std::min(rounds_per_instance, deltas.size())) {
          Round round;
          round.k = rounds.size();
          const std::string version = "r" + std::to_string(round.k + 1);
          Clock::time_point t0 = Clock::now();
          lag.push_back(MsBetween(last_answer, t0));
          auto ack = loop.Call(WithoutNewline(deltas[round.k].line));
          round.ingest_ms = MsBetween(t0, Clock::now());

          t0 = Clock::now();
          auto retrained = loop.Call(
              "{\"cmd\":\"retrain\",\"version\":\"" + version + "\"}");
          round.retrain_ms = MsBetween(t0, Clock::now());
          auto parsed = retrained.ok()
                            ? JsonValue::Parse(*retrained)
                            : StatusOr<JsonValue>(retrained.status());
          round.ok = ack.ok() && IsOk(*ack) && parsed.ok() &&
                     parsed->BoolOr("ok", false) &&
                     parsed->StringOr("bundle_version", "") == version;
          if (parsed.ok()) round.epoch = parsed->StringOr("bundle_epoch", "");

          t0 = Clock::now();
          auto answer = loop.Call(WithoutNewline(probes.Line(round.k)));
          round.probe_ms = MsBetween(t0, Clock::now());
          last_answer = Clock::now();
          if (answer.ok()) round.probe_response = *answer;
          rounds.push_back(std::move(round));
        }
        elapsed_s += MsBetween(start, Clock::now()) / 1000.0;
      },
      out);
  if (!stack.ok()) {
    out->invalid = stack.status().ToString();
    return;
  }
  FinishStack(&*stack, out, ctx.options.trace);

  std::size_t n = 0;
  std::size_t most = 0;
  std::vector<double> instance_median;
  std::vector<double> retrain_ms;
  std::vector<double> ingest_ms;
  std::vector<double> probe_ms;
  for (const std::vector<Round>& rounds : instances) {
    n += rounds.size();
    most = std::max(most, rounds.size());
    std::vector<double> timed;
    for (std::size_t i = 1; i < rounds.size(); ++i) {
      timed.push_back(rounds[i].retrain_ms);
      ingest_ms.push_back(rounds[i].ingest_ms);
      probe_ms.push_back(rounds[i].probe_ms);
    }
    retrain_ms.insert(retrain_ms.end(), timed.begin(), timed.end());
    instance_median.push_back(Median(timed));
  }
  if (ctx.options.trace) {
    out->Add("client.lag_p99_ms", Percentile(lag, 99), "ms", lag.size());
    out->Add("client.achieved_rps", static_cast<double>(n) / elapsed_s,
             "1/s", n);
  } else {
    // Median over instances of each instance's median retrain time.
    out->Add("p50_ms", Median(instance_median), "ms", retrain_ms.size());
    Report(out, "retrain_s", Median(instance_median) / 1000.0, "s",
           retrain_ms.size());
    Report(out, "retrain_p95_s", Percentile(retrain_ms, 95) / 1000.0, "s",
           retrain_ms.size());
    Report(out, "ingest_ack_p50_ms", Median(ingest_ms), "ms",
           ingest_ms.size());
    Report(out, "predict_p50_ms", Median(probe_ms), "ms", probe_ms.size());
    Report(out, "rounds_per_s", static_cast<double>(n) / elapsed_s, "1/s",
           n);
  }

  // Each retrained bundle must answer exactly like a direct Train on the
  // same snapshot: rebuild snapshot k in-process once, check its epoch,
  // train, and compare every instance's round-k probe answer.
  auto store = domd::DataStore::Open(ctx.fleet(), domd::DataStoreOptions{});
  domd::PipelineConfig config = ctx.bundle->config();
  config.parallelism.num_threads = 0;
  std::size_t wrong = 0;
  for (std::size_t k = 0; k < most; ++k) {
    std::string epoch;
    StatusOr<ServePrediction> expected = Status::Internal("no snapshot");
    if (store.ok() && (*store)->AppendBatch(deltas[k].mutations).ok()) {
      const auto snapshot = (*store)->Snapshot();
      char hex[20];
      std::snprintf(hex, sizeof(hex), "%016" PRIx64, snapshot->epoch());
      epoch = hex;
      std::vector<std::int64_t> ids;
      for (const domd::Avail& a : snapshot->data().avails.rows()) {
        if (a.delay().has_value()) ids.push_back(a.id);
      }
      auto estimator = domd::DomdEstimator::Train(snapshot, config, ids);
      if (estimator.ok()) {
        expected = ReferencePrediction(*estimator, probes.AvailId(k),
                                       probes.Key(k).t_star,
                                       "r" + std::to_string(k + 1));
      }
    }
    for (const std::vector<Round>& rounds : instances) {
      if (k >= rounds.size()) continue;
      const Round& round = rounds[k];
      if (!round.ok || round.epoch != epoch || !expected.ok() ||
          !PredictionMatches(round.probe_response, *expected)) {
        ++wrong;
      }
    }
  }
  out->attempted += n;
  out->failed += wrong;
  out->Note(Format("verify %zu retrain rounds (%zu snapshots) against "
                   "direct Train: %zu wrong",
                   n, most, wrong));
  if (!ctx.options.trace) ReportErrorRate(out);
}

}  // namespace perfbench
