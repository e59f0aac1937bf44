// perfbench — the DoMD benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR [--commit C] [--source-hash H]
//             [--build-type T]
//
// Workloads: detached_predict, routed_reference, ingest_freshness, retrain
// (see perfbench/README.md). With --trace 0 the run measures the
// end-to-end metrics against real domd_serve / domd_router processes; with
// --trace 1 it runs a short untraced live phase for the client metrics and
// then replays the seed's inputs through every layer in-process, recording
// spans. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "gen.h"
#include "obs/metrics.h"
#include "serve/json.h"
#include "workloads.h"

namespace {

using perfbench::Context;
using perfbench::Outcome;

int Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Usage("flags come in --key value pairs");
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto flag = [&flags](const std::string& key,
                             const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };

  Context ctx;
  ctx.options.workload = flag("workload", "");
  ctx.options.seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);
  ctx.options.seconds = std::atof(flag("seconds", "10").c_str());
  ctx.options.trace = flag("trace", "0") == "1";
  ctx.options.bin_dir = flag("bin-dir", "");
  ctx.options.work_dir = flag("work-dir", "");
  const std::map<std::string, void (*)(const Context&, Outcome*)> runners = {
      {"detached_predict", perfbench::RunDetachedPredict},
      {"routed_reference", perfbench::RunRoutedReference},
      {"ingest_freshness", perfbench::RunIngestFreshness},
      {"retrain", perfbench::RunRetrain},
  };
  const auto runner = runners.find(ctx.options.workload);
  if (runner == runners.end()) return Usage("unknown --workload");
  if (ctx.options.seconds <= 0) return Usage("--seconds must be positive");
  if (ctx.options.bin_dir.empty() || ctx.options.work_dir.empty()) {
    return Usage("--bin-dir and --work-dir are required");
  }
  std::filesystem::create_directories(ctx.options.work_dir);
  domd::obs::SetEnabled(true);

  // Provenance, printed before anything else is measured.
  domd::JsonValue provenance = domd::JsonValue::Object();
  provenance.Set("workload", domd::JsonValue::String(ctx.options.workload));
  provenance.Set("seed", domd::JsonValue::Number(
                             static_cast<double>(ctx.options.seed)));
  provenance.Set("seconds", domd::JsonValue::Number(ctx.options.seconds));
  provenance.Set("trace", domd::JsonValue::Bool(ctx.options.trace));
  provenance.Set("commit", domd::JsonValue::String(flag("commit", "unknown")));
  provenance.Set("source_hash",
                 domd::JsonValue::String(flag("source-hash", "unknown")));
  provenance.Set("build_type",
                 domd::JsonValue::String(flag("build-type", "unknown")));
  provenance.Set("compiler", domd::JsonValue::String(__VERSION__));
  provenance.Set("hardware_threads",
                 domd::JsonValue::Number(std::thread::hardware_concurrency()));
  domd::JsonValue rates = domd::JsonValue::Object();
  rates.Set("detached_predict_rps",
            domd::JsonValue::Number(perfbench::kDetachedFixedRps));
  rates.Set("routed_reference_rps",
            domd::JsonValue::Number(perfbench::kRoutedFixedRps));
  rates.Set("ingest_batches_rps",
            domd::JsonValue::Number(perfbench::kIngestFixedRps));
  rates.Set("freshness_rps", domd::JsonValue::Number(perfbench::kFreshnessRps));
  provenance.Set("fixed_offered_rates", std::move(rates));
  std::printf("provenance %s\n", provenance.Serialize().c_str());
  std::fflush(stdout);

  ctx.bundle_dir = ctx.options.work_dir + "/bundle";
  std::filesystem::remove_all(ctx.bundle_dir);
  const domd::Status written = perfbench::WriteFleetBundle(ctx.bundle_dir);
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: bundle: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  domd::Parallelism parallelism;
  parallelism.num_threads = 0;
  auto bundle = domd::ModelBundle::Load(ctx.bundle_dir, parallelism);
  if (!bundle.ok()) {
    std::fprintf(stderr, "perfbench: bundle load: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  ctx.bundle = *bundle;

  Outcome outcome;
  runner->second(ctx, &outcome);
  if (ctx.options.trace && outcome.invalid.empty()) {
    perfbench::RunLayerReplay(ctx, &outcome);
  }
  for (const std::string& line : outcome.lines) {
    std::printf("%s\n", line.c_str());
  }
  if (!outcome.invalid.empty()) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n",
                 outcome.invalid.c_str());
    return 3;
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "perfbench: nothing was attempted\n");
    return 3;
  }

  domd::JsonValue metrics = domd::JsonValue::Object();
  for (const auto& [name, metric] : outcome.metrics) {
    domd::JsonValue m = domd::JsonValue::Object();
    m.Set("value", domd::JsonValue::Number(metric.value));
    m.Set("unit", domd::JsonValue::String(metric.unit));
    metrics.Set(name, std::move(m));
  }
  domd::JsonValue result = domd::JsonValue::Object();
  result.Set("correct", domd::JsonValue::Bool(outcome.failed == 0));
  result.Set("attempted", domd::JsonValue::Number(
                              static_cast<double>(outcome.attempted)));
  result.Set("failed",
             domd::JsonValue::Number(static_cast<double>(outcome.failed)));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Serialize().c_str());
  return 0;
}
