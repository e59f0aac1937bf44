// The benchmark's four workloads and its traced per-layer replay.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/model_bundle.h"

namespace perfbench {

/// Offered rates fixed once against the seed commit, and the p99 limits
/// max_rps is searched against. Changing any of these redefines the
/// benchmark.
inline constexpr double kDetachedFixedRps = 100.0;
/// Where the max_rps searches start: about the seed commit's max_rps.
inline constexpr double kDetachedSearchStartRps = 800.0;
inline constexpr double kDetachedLimitMs = 100.0;
/// Eight shuffles of the 73 x 11 (avail, t*) keys.
inline constexpr std::size_t kDetachedStreamLength = 8 * 73 * 11;
inline constexpr double kRoutedFixedRps = 4000.0;
inline constexpr double kRoutedSearchStartRps = 8000.0;
inline constexpr double kRoutedLimitMs = 25.0;
inline constexpr std::size_t kRoutedStreamLength = 1 << 18;
inline constexpr double kRoutedZipfS = 1.1;
inline constexpr double kIngestFixedRps = 30.0;  ///< batches per second.
inline constexpr double kIngestSearchStartRps = 60.0;
inline constexpr double kIngestLimitMs = 50.0;
inline constexpr double kFreshnessRps = 10.0;
inline constexpr std::size_t kIngestStreamLength = 8192;
inline constexpr std::size_t kIngestRowsPerBatch = 10;
inline constexpr double kIngestUpdateShare = 0.9;
inline constexpr std::size_t kMergeThreshold = 2000;
inline constexpr std::size_t kRetrainDeltaRows = 40;
inline constexpr std::size_t kRetrainMaxRounds = 64;
/// Round time of the seed commit, used only to size the round count.
inline constexpr double kRetrainRoundSeconds = 0.8;
/// Generator lag above this share of the latency limit makes a run invalid.
inline constexpr double kMaxLagShare = 0.25;
/// Server start-ups per run; setup_s is their median and the fixed-rate
/// phase is split across them.
inline constexpr int kSetupRepeats = 3;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;   ///< holds domd_serve and domd_router.
  std::string work_dir;  ///< scratch space of this run.
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything a run reports.
struct Outcome {
  /// Metrics of the final JSON line, by name.
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the JSON (per-operation metrics,
  /// input properties, probe history).
  std::vector<std::string> lines;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Empty when the run is valid; otherwise why it is not.
  std::string invalid;

  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void Note(const std::string& line) { lines.push_back(line); }
};

/// Shared state of one run: the fleet bundle (also loaded in-process for
/// expected answers) and the run's options.
struct Context {
  RunOptions options;
  std::string bundle_dir;
  std::shared_ptr<const domd::ModelBundle> bundle;
  const domd::Dataset& fleet() const { return bundle->data(); }
};

/// Workload runners: fill `out` with the end-to-end metrics (untraced) or,
/// with options.trace, the per-layer metrics.
void RunDetachedPredict(const Context& ctx, Outcome* out);
void RunRoutedReference(const Context& ctx, Outcome* out);
void RunIngestFreshness(const Context& ctx, Outcome* out);
void RunRetrain(const Context& ctx, Outcome* out);

/// The traced run's in-process replay of every layer (after the workload's
/// own short untraced live phase filled the client.* metrics).
void RunLayerReplay(const Context& ctx, Outcome* out);

/// True when `response` (one wire line) carries exactly `expected`: every
/// number bit-identical, the same top features, the same bundle version.
bool PredictionMatches(const std::string& response,
                       const domd::ServePrediction& expected);

/// The prediction ScoreReferenceAvail would build from `estimator`.
domd::StatusOr<domd::ServePrediction> ReferencePrediction(
    const domd::DomdEstimator& estimator, std::int64_t avail_id,
    double t_star, const std::string& version);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
