// Seeded workload synthesiser (SynQL-style: a parameterised generator whose
// only inputs are the fleet and --seed). The fleet is the paper-scale
// SynthConfig default (73 avails, ~56k RCCs) and never changes with the
// seed; the seed drives every request stream.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ingest/mutation.h"
#include "serve/model_bundle.h"

namespace perfbench {

/// The logical-time grid t* is drawn from: 0, 10, ..., 100.
std::vector<double> TStarGrid();

/// Trains the benchmark's serving bundle over the default fleet exactly as
/// `domd train --bundle DIR` does with its defaults, and writes it to dir.
domd::Status WriteFleetBundle(const std::string& dir);

/// JSON encodings of fleet rows, in the serving wire schema.
std::string AvailJson(const domd::Avail& avail);
std::string RccJson(const domd::Rcc& rcc);

/// 64-bit FNV-1a, folded over successive strings for stream hashes.
std::uint64_t Fnv1a(std::uint64_t hash, const std::string& bytes);
inline constexpr std::uint64_t kFnvSeed = 0xCBF29CE484222325ull;

/// A key of a predict request: which avail (row index into the fleet) and
/// at which logical time.
struct PredictKey {
  std::size_t avail_row = 0;
  double t_star = 0.0;
  bool operator<(const PredictKey& other) const {
    return std::pair(avail_row, t_star) <
           std::pair(other.avail_row, other.t_star);
  }
};

/// Detached predict requests: a seeded stream of keys, with one wire line
/// and one in-process ScoreRequest per distinct key.
class DetachedRequests {
 public:
  DetachedRequests(const domd::Dataset& fleet, std::uint64_t seed,
                   std::size_t length);

  const std::vector<PredictKey>& stream() const { return stream_; }
  const std::string& Line(std::size_t i) const;
  const domd::ScoreRequest& Request(std::size_t i) const;
  const PredictKey& Key(std::size_t i) const {
    return stream_[i % stream_.size()];
  }
  /// Every distinct key of the stream, in order of first appearance.
  const std::vector<PredictKey>& distinct() const { return distinct_; }
  std::size_t DistinctIndex(std::size_t i) const {
    return key_slot_[i % stream_.size()];
  }
  const std::string& DistinctLine(std::size_t k) const { return lines_[k]; }
  const domd::ScoreRequest& DistinctRequest(std::size_t k) const {
    return requests_[k];
  }
  std::uint64_t StreamHash() const;

 private:
  std::vector<PredictKey> stream_;
  std::vector<std::size_t> key_slot_;
  std::vector<PredictKey> distinct_;
  std::vector<std::string> lines_;
  std::vector<domd::ScoreRequest> requests_;
};

/// Zipf-skewed reference predicts ({"avail_id","t_star"}).
class ReferenceRequests {
 public:
  ReferenceRequests(const domd::Dataset& fleet, std::uint64_t seed,
                    std::size_t length, double zipf_s);

  std::size_t size() const { return stream_.size(); }
  const PredictKey& Key(std::size_t i) const {
    return stream_[i % stream_.size()];
  }
  std::int64_t AvailId(std::size_t i) const;
  const std::string& Line(std::size_t i) const {
    return lines_[i % lines_.size()];
  }
  /// Share of stream entries whose key already appeared earlier.
  double RepeatedShare() const;
  std::uint64_t StreamHash() const;

 private:
  const domd::Dataset* fleet_;
  std::vector<PredictKey> stream_;
  std::vector<std::string> lines_;
};

/// One seeded ingest batch of RCC upserts.
struct IngestBatch {
  std::vector<domd::IngestMutation> mutations;
  std::string line;
};

/// Seeded RCC-upsert batches: `update_share` of the rows re-settle an
/// existing RCC with another fleet RCC's amount, the rest insert a copy of
/// an existing RCC of a random avail under a fresh id. Values are taken
/// from the fleet so every row round-trips through the bundle CSVs exactly.
std::vector<IngestBatch> MakeIngestBatches(const domd::Dataset& fleet,
                                           std::uint64_t seed,
                                           std::size_t batches,
                                           std::size_t rows_per_batch,
                                           double update_share);

std::uint64_t BatchesHash(const std::vector<IngestBatch>& batches);

/// Input properties the workloads depend on, printed with every run.
struct InputProperties {
  std::vector<double> request_bytes;  ///< one entry per stream request.
  std::map<double, std::size_t> t_star_histogram;
  double repeated_share = 0.0;
};

InputProperties DescribeDetached(const DetachedRequests& requests);
InputProperties DescribeReference(const ReferenceRequests& requests);
InputProperties DescribeIngest(const std::vector<IngestBatch>& batches);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
