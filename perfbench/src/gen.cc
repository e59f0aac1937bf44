#include "gen.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "core/domd_estimator.h"
#include "data/logical_time.h"
#include "data/splits.h"
#include "serve/json.h"
#include "synth/generator.h"

namespace perfbench {

using domd::Avail;
using domd::Dataset;
using domd::JsonValue;
using domd::Rcc;

namespace {

JsonValue DateOrNull(const std::optional<domd::Date>& date) {
  return date.has_value() ? JsonValue::String(date->ToString())
                          : JsonValue::Null();
}

JsonValue Num(double value) { return JsonValue::Number(value); }

// Distinct stream seeds per input kind, so adding one kind never shifts
// another kind's draws.
constexpr std::uint64_t kDetachedStream = 1;
constexpr std::uint64_t kReferenceStream = 2;
constexpr std::uint64_t kIngestStream = 3;

}  // namespace

std::vector<double> TStarGrid() {
  std::vector<double> grid;
  for (int t = 0; t <= 100; t += 10) grid.push_back(t);
  return grid;
}

domd::Status WriteFleetBundle(const std::string& dir) {
  // Mirrors CmdTrain in tools/domd_cli.cc with every flag at its default.
  const Dataset data = domd::GenerateDataset(domd::SynthConfig{});
  domd::PipelineConfig config;
  config.window_width_pct = 10.0;
  config.num_features = 60;
  config.gbt.num_rounds = 150;
  config.seed = 42;
  config.parallelism.num_threads = 0;
  domd::Rng rng(config.seed + 1);
  auto split = domd::MakeSplit(data.avails, domd::SplitOptions{}, &rng);
  if (!split.ok()) return split.status();
  auto estimator = domd::DomdEstimator::Train(&data, config, split->train);
  if (!estimator.ok()) return estimator.status();
  return domd::ModelBundle::Write(*estimator, data, dir, "v1");
}

std::string AvailJson(const Avail& a) {
  JsonValue out = JsonValue::Object();
  out.Set("id", Num(static_cast<double>(a.id)));
  out.Set("ship_id", Num(static_cast<double>(a.ship_id)));
  out.Set("status", JsonValue::String(domd::AvailStatusToString(a.status)));
  out.Set("planned_start", JsonValue::String(a.planned_start.ToString()));
  out.Set("planned_end", JsonValue::String(a.planned_end.ToString()));
  out.Set("actual_start", JsonValue::String(a.actual_start.ToString()));
  out.Set("actual_end", DateOrNull(a.actual_end));
  out.Set("ship_class", Num(a.ship_class));
  out.Set("rmc_id", Num(a.rmc_id));
  out.Set("ship_age_years", Num(a.ship_age_years));
  out.Set("avail_type", Num(a.avail_type));
  out.Set("homeport", Num(a.homeport));
  out.Set("prior_avail_count", Num(a.prior_avail_count));
  out.Set("contract_value_musd", Num(a.contract_value_musd));
  out.Set("crew_size", Num(a.crew_size));
  return out.Serialize();
}

std::string RccJson(const Rcc& r) {
  JsonValue out = JsonValue::Object();
  out.Set("id", Num(static_cast<double>(r.id)));
  out.Set("avail_id", Num(static_cast<double>(r.avail_id)));
  out.Set("type", JsonValue::String(domd::RccTypeToCode(r.type)));
  out.Set("swlin", JsonValue::String(r.swlin.ToString()));
  out.Set("creation_date", JsonValue::String(r.creation_date.ToString()));
  out.Set("settled_date", DateOrNull(r.settled_date));
  out.Set("settled_amount", Num(r.settled_amount));
  return out.Serialize();
}

std::uint64_t Fnv1a(std::uint64_t hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// ---- detached ------------------------------------------------------------

DetachedRequests::DetachedRequests(const Dataset& fleet, std::uint64_t seed,
                                   std::size_t length) {
  domd::Rng rng = domd::Rng::ForStream(seed, kDetachedStream);
  const std::vector<double> grid = TStarGrid();
  const auto& avails = fleet.avails.rows();
  // Stratified draw: the stream is a run of seeded shuffles of every
  // (avail, t*) key, so each key is equally likely (avail and t* uniform)
  // while every seed offers the same request mix, in its own order.
  std::vector<PredictKey> keys;
  for (std::size_t row = 0; row < avails.size(); ++row) {
    for (double t : grid) keys.push_back({row, t});
  }
  std::map<PredictKey, std::size_t> slot_of;
  while (stream_.size() < length) {
    for (std::size_t i = keys.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(keys[i - 1], keys[j]);
    }
    for (const PredictKey& key : keys) {
      if (stream_.size() == length) break;
      auto [it, inserted] = slot_of.emplace(key, distinct_.size());
      if (inserted) distinct_.push_back(key);
      stream_.push_back(key);
      key_slot_.push_back(it->second);
    }
  }

  // One wire line + ScoreRequest per distinct key: the avail row and the
  // RCCs it created by t*.
  std::map<std::size_t, std::string> avail_json;
  for (const PredictKey& key : distinct_) {
    const Avail& avail = avails[key.avail_row];
    const domd::Date cutoff = domd::PhysicalTime(avail, key.t_star);
    domd::ScoreRequest request;
    request.avail = avail;
    request.t_star = key.t_star;
    request.top_k = 5;
    std::string line = "{\"avail\":";
    auto [json_it, fresh] = avail_json.emplace(key.avail_row, "");
    if (fresh) json_it->second = AvailJson(avail);
    line += json_it->second;
    line += ",\"rccs\":[";
    bool first = true;
    for (std::size_t row : fleet.rccs.RowsForAvail(avail.id)) {
      const Rcc& rcc = fleet.rccs.rows()[row];
      if (rcc.creation_date > cutoff) continue;
      if (!first) line += ',';
      first = false;
      line += RccJson(rcc);
      request.rccs.push_back(rcc);
    }
    line += "],\"t_star\":";
    line += JsonValue::Number(key.t_star).Serialize();
    line += ",\"top_k\":5}\n";
    lines_.push_back(std::move(line));
    requests_.push_back(std::move(request));
  }
}

const std::string& DetachedRequests::Line(std::size_t i) const {
  return lines_[DistinctIndex(i)];
}

const domd::ScoreRequest& DetachedRequests::Request(std::size_t i) const {
  return requests_[DistinctIndex(i)];
}

std::uint64_t DetachedRequests::StreamHash() const {
  std::vector<std::uint64_t> line_hash;
  for (const std::string& line : lines_) {
    line_hash.push_back(Fnv1a(kFnvSeed, line));
  }
  std::uint64_t hash = kFnvSeed;
  for (std::size_t slot : key_slot_) {
    hash = Fnv1a(hash, std::to_string(line_hash[slot]));
  }
  return hash;
}

// ---- reference -----------------------------------------------------------

ReferenceRequests::ReferenceRequests(const Dataset& fleet, std::uint64_t seed,
                                     std::size_t length, double zipf_s)
    : fleet_(&fleet) {
  domd::Rng rng = domd::Rng::ForStream(seed, kReferenceStream);
  const std::vector<double> grid = TStarGrid();
  const std::size_t n = fleet.avails.size();
  // Seeded rank -> avail permutation, then Zipf(s) weights over ranks.
  std::vector<std::size_t> by_rank(n);
  for (std::size_t i = 0; i < n; ++i) by_rank[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(by_rank[i - 1], by_rank[j]);
  }
  std::vector<double> weights(n);
  for (std::size_t r = 0; r < n; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
  }
  for (std::size_t i = 0; i < length; ++i) {
    PredictKey key;
    key.avail_row = by_rank[rng.Categorical(weights)];
    key.t_star = grid[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(grid.size()) - 1))];
    stream_.push_back(key);
    lines_.push_back(
        "{\"avail_id\":" +
        std::to_string(fleet.avails.rows()[key.avail_row].id) +
        ",\"t_star\":" + JsonValue::Number(key.t_star).Serialize() + "}\n");
  }
}

std::int64_t ReferenceRequests::AvailId(std::size_t i) const {
  return fleet_->avails.rows()[Key(i).avail_row].id;
}

double ReferenceRequests::RepeatedShare() const {
  std::set<PredictKey> seen;
  std::size_t repeated = 0;
  for (const PredictKey& key : stream_) {
    if (!seen.insert(key).second) ++repeated;
  }
  return stream_.empty() ? 0.0
                         : static_cast<double>(repeated) /
                               static_cast<double>(stream_.size());
}

std::uint64_t ReferenceRequests::StreamHash() const {
  std::uint64_t hash = kFnvSeed;
  for (const std::string& line : lines_) hash = Fnv1a(hash, line);
  return hash;
}

// ---- ingest --------------------------------------------------------------

std::vector<IngestBatch> MakeIngestBatches(const Dataset& fleet,
                                           std::uint64_t seed,
                                           std::size_t batches,
                                           std::size_t rows_per_batch,
                                           double update_share) {
  domd::Rng rng = domd::Rng::ForStream(seed, kIngestStream);
  const auto& rccs = fleet.rccs.rows();
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  std::int64_t next_id = 0;
  for (const Rcc& rcc : rccs) next_id = std::max(next_id, rcc.id);
  ++next_id;

  std::vector<IngestBatch> out;
  out.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    IngestBatch batch;
    std::string body;
    for (std::size_t r = 0; r < rows_per_batch; ++r) {
      Rcc rcc = rccs[pick(rccs.size())];
      if (rng.Bernoulli(update_share)) {
        // Re-settle: another fleet RCC's amount (CSV-exact by origin).
        rcc.settled_amount = rccs[pick(rccs.size())].settled_amount;
      } else {
        rcc.id = next_id++;
      }
      if (!body.empty()) body += ',';
      body += RccJson(rcc);
      batch.mutations.push_back(domd::MakeRccUpsert(std::move(rcc)));
    }
    batch.line = "{\"cmd\":\"ingest\",\"rccs\":[" + body + "]}\n";
    out.push_back(std::move(batch));
  }
  return out;
}

std::uint64_t BatchesHash(const std::vector<IngestBatch>& batches) {
  std::uint64_t hash = kFnvSeed;
  for (const IngestBatch& batch : batches) hash = Fnv1a(hash, batch.line);
  return hash;
}

// ---- input properties ----------------------------------------------------

InputProperties DescribeDetached(const DetachedRequests& requests) {
  InputProperties out;
  std::set<PredictKey> seen;
  std::size_t repeated = 0;
  for (std::size_t i = 0; i < requests.stream().size(); ++i) {
    out.request_bytes.push_back(
        static_cast<double>(requests.Line(i).size()));
    ++out.t_star_histogram[requests.Key(i).t_star];
    if (!seen.insert(requests.Key(i)).second) ++repeated;
  }
  out.repeated_share = static_cast<double>(repeated) /
                       static_cast<double>(requests.stream().size());
  return out;
}

InputProperties DescribeReference(const ReferenceRequests& requests) {
  InputProperties out;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.request_bytes.push_back(
        static_cast<double>(requests.Line(i).size()));
    ++out.t_star_histogram[requests.Key(i).t_star];
  }
  out.repeated_share = requests.RepeatedShare();
  return out;
}

InputProperties DescribeIngest(const std::vector<IngestBatch>& batches) {
  InputProperties out;
  std::set<std::int64_t> seen;
  std::size_t rows = 0;
  std::size_t repeated = 0;
  for (const IngestBatch& batch : batches) {
    out.request_bytes.push_back(static_cast<double>(batch.line.size()));
    for (const domd::IngestMutation& m : batch.mutations) {
      ++rows;
      if (!seen.insert(m.rcc.id).second) ++repeated;
    }
  }
  out.repeated_share =
      rows == 0 ? 0.0
                : static_cast<double>(repeated) / static_cast<double>(rows);
  return out;
}

}  // namespace perfbench
