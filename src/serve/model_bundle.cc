#include "serve/model_bundle.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/fusion.h"
#include "data/integrity.h"
#include "data/logical_time.h"
#include "fault/fault.h"
#include "features/feature_catalog.h"

namespace domd {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kModelsName[] = "models.txt";
constexpr char kAvailsName[] = "avails.csv";
constexpr char kRccsName[] = "rccs.csv";

/// The payload files a MANIFEST checksums, in the order the manifest lists
/// them, `Load` parses them and a publish stages them.
constexpr const char* kPayloadNames[] = {kAvailsName, kRccsName, kModelsName};
constexpr std::size_t kNumPayloads = std::size(kPayloadNames);
using Payloads = std::array<std::string, kNumPayloads>;

/// A parsed MANIFEST and the raw bytes it was parsed from.
struct Manifest {
  std::string bytes;
  std::string version;
  std::uint64_t schema_hash = 0;
  std::uint64_t num_avails = 0;
  std::uint64_t num_rccs = 0;
  std::array<std::uint64_t, kNumPayloads> checksums{};  ///< per payload.
};

bool IsValidVersionTag(const std::string& version) {
  if (version.empty() || version.size() > 128) return false;
  return std::none_of(version.begin(), version.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

/// Whole-string unsigned decimal: no sign, no whitespace, no overflow.
bool ParseU64(std::string_view text, std::uint64_t* value) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *value);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// The one MANIFEST reader, shared by `Load` and `CopyBundleDurable`. It
/// accepts exactly what `Write` emits: the "domd_bundle v2" magic line, the
/// version, schema_hash, avails and rccs records in that order, then one
/// checksum record per payload file in any order. A missing manifest is
/// kIoError (possibly transient), a malformed one kInvalidArgument, and one
/// that lacks a payload's checksum kDataLoss (torn or tampered). The
/// serve.bundle.read fault point fires once here; the manifest bytes never
/// pass through serve.bundle.corrupt.
StatusOr<Manifest> ReadManifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestName;
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open bundle manifest in " + dir);
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.read").Check());
  Manifest manifest;
  manifest.bytes.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed for " + path);

  const auto bad = [&](const std::string& what) {
    return Status::InvalidArgument(dir + ": " + what);
  };
  std::vector<std::string> lines = StrSplit(manifest.bytes, '\n');
  if (lines.back().empty()) lines.pop_back();  // the final newline.
  if (lines.empty() || lines[0] != "domd_bundle v2") {
    return bad("not a domd_bundle v2 manifest (bad magic)");
  }
  std::vector<std::vector<std::string>> records;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    records.push_back(StrSplit(lines[i], ' '));
  }
  // Value of the "<key> <value>" header record at `index`, or nullptr.
  const auto header = [&](std::size_t index,
                          std::string_view key) -> const std::string* {
    if (index >= records.size() || records[index].size() != 2 ||
        records[index][0] != key) {
      return nullptr;
    }
    return &records[index][1];
  };
  const std::string* version = header(0, "version");
  if (version == nullptr || !IsValidVersionTag(*version)) {
    return bad("bad manifest version record");
  }
  manifest.version = *version;
  const std::string* schema_hash = header(1, "schema_hash");
  if (schema_hash == nullptr ||
      !ParseU64(*schema_hash, &manifest.schema_hash)) {
    return bad("bad manifest schema_hash record");
  }
  const std::string* avails = header(2, "avails");
  const std::string* rccs = header(3, "rccs");
  if (avails == nullptr || rccs == nullptr ||
      !ParseU64(*avails, &manifest.num_avails) ||
      !ParseU64(*rccs, &manifest.num_rccs)) {
    return bad("bad manifest cardinality record");
  }
  std::array<bool, kNumPayloads> seen{};
  for (std::size_t i = 4; i < records.size(); ++i) {
    const std::vector<std::string>& fields = records[i];
    if (fields.size() != 3 || fields[0] != "checksum") {
      return bad("bad manifest record \"" + fields[0] + "\"");
    }
    const auto* name = std::find(std::begin(kPayloadNames),
                                 std::end(kPayloadNames), fields[1]);
    if (name == std::end(kPayloadNames)) {
      return bad("checksum for unknown file \"" + fields[1] + "\"");
    }
    const auto k = static_cast<std::size_t>(name - std::begin(kPayloadNames));
    if (seen[k] || !ParseU64(fields[2], &manifest.checksums[k])) {
      return bad("bad checksum record for " + fields[1]);
    }
    seen[k] = true;
  }
  for (std::size_t k = 0; k < kNumPayloads; ++k) {
    if (!seen[k]) {
      return Status::DataLoss(dir + ": manifest lacks a checksum for " +
                              kPayloadNames[k] + " — torn or tampered bundle");
    }
  }
  return manifest;
}

/// Reads a whole file. The serve.bundle.read fault point injects transient
/// read errors here (absorbed by LoadBundleWithRetry); serve.bundle.corrupt
/// flips bytes of what was read, which the checksum gate must then catch.
StatusOr<std::string> ReadFileBytes(const std::string& path) {
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.read").Check());
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed for " + path);
  std::string bytes = buffer.str();
  DOMD_FAULT_POINT("serve.bundle.corrupt").MaybeCorrupt(&bytes);
  return bytes;
}

/// Reads every payload file of the bundle at `dir` and verifies it against
/// `manifest`. A flipped bit anywhere is kDataLoss before any parser runs,
/// and so is a file the manifest promises but the directory lacks: that is
/// a torn publish, not a transient I/O failure, so retrying cannot help.
StatusOr<Payloads> ReadVerifiedPayloads(const std::string& dir,
                                        const Manifest& manifest) {
  Payloads payloads;
  for (std::size_t k = 0; k < kNumPayloads; ++k) {
    const std::string path = dir + "/" + kPayloadNames[k];
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      if (bytes.status().code() == StatusCode::kIoError &&
          !std::filesystem::exists(path)) {
        return Status::DataLoss(path +
                                " is missing but listed in the manifest — "
                                "torn bundle publish");
      }
      return bytes.status();
    }
    const std::uint64_t checksum = Fnv1a64(*bytes);
    if (checksum != manifest.checksums[k]) {
      return Status::DataLoss(
          path + ": checksum mismatch (manifest " +
          std::to_string(manifest.checksums[k]) + ", file " +
          std::to_string(checksum) + ") — bundle is torn or corrupt");
    }
    payloads[k] = std::move(*bytes);
  }
  return payloads;
}

/// Atomically publishes the fully-written staging directory as `final`.
/// A pre-existing bundle at `final` is displaced to final.old first and
/// removed after the swap, so readers only ever see the old complete
/// bundle or the new complete bundle — never a mixture.
Status CommitDirectory(const std::string& staging, const std::string& final) {
  std::error_code ec;
  const bool displaced = std::filesystem::exists(final, ec);
  const std::string old = final + ".old";
  if (displaced) {
    std::filesystem::remove_all(old, ec);
    ec.clear();
    std::filesystem::rename(final, old, ec);
    if (ec) {
      return Status::IoError("cannot displace existing bundle " + final +
                             ": " + ec.message());
    }
  }
  std::filesystem::rename(staging, final, ec);
  if (ec) {
    // Roll the old bundle back so the published path stays valid.
    if (displaced) {
      std::error_code rollback;
      std::filesystem::rename(old, final, rollback);
    }
    return Status::IoError("cannot publish bundle " + staging + " -> " +
                           final + ": " + ec.message());
  }
  if (displaced) std::filesystem::remove_all(old, ec);
  return FsyncParentDir(final);
}

/// Crash-safe publication protocol (DESIGN.md §10), shared by `Write` and
/// `CopyBundleDurable`: every file is staged into <dir>.tmp and fsynced,
/// the manifest last; only a fully-written staging directory is atomically
/// renamed onto <dir>. A crash (or injected fault) at any earlier instant
/// leaves at most a stale .tmp directory — the published path never holds
/// a torn bundle.
Status PublishBundle(const std::string& dir, const Payloads& payloads,
                     std::string_view manifest) {
  const std::string staging = dir + ".tmp";
  std::error_code ec;
  std::filesystem::remove_all(staging, ec);  // stale staging from a crash.
  ec.clear();
  std::filesystem::create_directories(staging, ec);
  if (ec) {
    return Status::IoError("cannot create staging directory " + staging +
                           ": " + ec.message());
  }
  // The serve.bundle.write fault point simulates a crash mid-publication:
  // the staging directory is left torn and never committed.
  const auto stage = [&](const char* name, std::string_view bytes) {
    DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.write").Check());
    return WriteFileSynced(staging + "/" + name, bytes);
  };
  for (std::size_t k = 0; k < kNumPayloads; ++k) {
    DOMD_RETURN_IF_ERROR(stage(kPayloadNames[k], payloads[k]));
  }
  DOMD_RETURN_IF_ERROR(stage(kManifestName, manifest));
  DOMD_RETURN_IF_ERROR(FsyncDirectory(staging));

  // The commit point: a crash (or injected fault) before the rename leaves
  // only the staging directory; the published path is untouched.
  DOMD_RETURN_IF_ERROR(DOMD_FAULT_POINT("serve.bundle.commit").Check());
  return CommitDirectory(staging, dir);
}

/// Index of the last grid step at or before `t_star`; before the start
/// only the base step (0) answers.
std::size_t LastStep(const std::vector<double>& grid, double t_star) {
  return static_cast<std::size_t>(
      std::max(GridIndexAtOrBefore(grid, t_star), 0));
}

}  // namespace

Status ModelBundle::Write(const DomdEstimator& estimator, const Dataset& data,
                          const std::string& dir,
                          const std::string& version) {
  if (!IsValidVersionTag(version)) {
    return Status::InvalidArgument(
        "bundle version must be a non-empty whitespace-free tag");
  }
  Payloads payloads;
  payloads[0] = data.avails.ToCsv().Serialize();
  payloads[1] = data.rccs.ToCsv().Serialize();
  std::ostringstream models_out;
  DOMD_RETURN_IF_ERROR(estimator.models().Save(models_out));
  payloads[2] = models_out.str();

  std::ostringstream manifest;
  manifest << "domd_bundle v2\n";
  manifest << "version " << version << "\n";
  manifest << "schema_hash " << FeatureCatalogVersion() << "\n";
  manifest << "avails " << data.avails.size() << "\n";
  manifest << "rccs " << data.rccs.size() << "\n";
  for (std::size_t k = 0; k < kNumPayloads; ++k) {
    manifest << "checksum " << kPayloadNames[k] << " "
             << Fnv1a64(payloads[k]) << "\n";
  }
  return PublishBundle(dir, payloads, manifest.str());
}

Status CopyBundleDurable(const std::string& src_dir,
                         const std::string& dest_dir) {
  // The manifest and checksums gate the copy exactly like they gate Load,
  // and nothing is written until every source file verified, so a corrupt
  // or torn source never propagates.
  auto manifest = ReadManifest(src_dir);
  if (!manifest.ok()) return manifest.status();
  auto payloads = ReadVerifiedPayloads(src_dir, *manifest);
  if (!payloads.ok()) return payloads.status();
  return PublishBundle(dest_dir, *payloads, manifest->bytes);
}

StatusOr<std::shared_ptr<const ModelBundle>> ModelBundle::Load(
    const std::string& dir, const Parallelism& parallelism,
    std::size_t cache_bytes) {
  auto manifest = ReadManifest(dir);
  if (!manifest.ok()) return manifest.status();

  // Schema-compatibility gate: a bundle written under a different feature
  // catalog would misalign model input columns — refuse early and loudly.
  if (manifest->schema_hash != FeatureCatalogVersion()) {
    return Status::FailedPrecondition(
        dir + ": bundle schema hash " +
        std::to_string(manifest->schema_hash) +
        " does not match this binary's feature schema " +
        std::to_string(FeatureCatalogVersion()));
  }

  // Parse from exactly the verified bytes: a corrupt artifact can never be
  // half-loaded into a serving process.
  auto payloads = ReadVerifiedPayloads(dir, *manifest);
  if (!payloads.ok()) return payloads.status();

  auto bundle = std::shared_ptr<ModelBundle>(new ModelBundle());
  bundle->version_ = manifest->version;
  bundle->schema_hash_ = manifest->schema_hash;
  bundle->directory_ = dir;

  Dataset reference;
  auto avails_doc = CsvDocument::Parse((*payloads)[0]);
  if (!avails_doc.ok()) return avails_doc.status();
  auto avails = AvailTable::FromCsv(*avails_doc);
  if (!avails.ok()) return avails.status();
  reference.avails = std::move(*avails);
  auto rccs_doc = CsvDocument::Parse((*payloads)[1]);
  if (!rccs_doc.ok()) return rccs_doc.status();
  auto rccs = RccTable::FromCsv(*rccs_doc);
  if (!rccs.ok()) return rccs.status();
  reference.rccs = std::move(*rccs);

  if (reference.avails.size() != manifest->num_avails ||
      reference.rccs.size() != manifest->num_rccs) {
    return Status::FailedPrecondition(
        dir + ": reference tables do not match manifest cardinalities");
  }
  const IntegrityReport report = CheckDatasetIntegrity(reference);
  if (!report.ok()) {
    return Status::FailedPrecondition(
        dir + ": reference fleet failed integrity check (" +
        std::to_string(report.num_errors) + " errors)");
  }

  // The reference fleet is cut from an in-memory DataStore like every other
  // pipeline read; the pinned snapshot owns the tables, so the store itself
  // need not outlive this call.
  auto store = DataStore::Open(std::move(reference));
  if (!store.ok()) return store.status();
  bundle->snapshot_ = (*store)->Snapshot();

  std::istringstream models_in((*payloads)[2]);
  auto estimator = DomdEstimator::LoadModelsFromStream(
      bundle->snapshot_, models_in, parallelism, cache_bytes);
  if (!estimator.ok()) return estimator.status();
  bundle->estimator_ = std::make_unique<DomdEstimator>(std::move(*estimator));
  return std::shared_ptr<const ModelBundle>(std::move(bundle));
}

StatusOr<std::shared_ptr<const ModelBundle>> LoadBundleWithRetry(
    const std::string& dir, const Parallelism& parallelism,
    std::size_t cache_bytes, const RetryOptions& retry) {
  return RetryWithBackoff<std::shared_ptr<const ModelBundle>>(
      retry, [&]() -> StatusOr<std::shared_ptr<const ModelBundle>> {
        return ModelBundle::Load(dir, parallelism, cache_bytes);
      });
}

ServePrediction ModelBundle::FinishPrediction(
    std::int64_t avail_id, double t_star, const ModelingView& view,
    std::size_t row, const std::vector<double>& per_step,
    std::size_t top_k) const {
  const TimelineModelSet& models = estimator_->models();
  const std::size_t last = per_step.size() - 1;
  ServePrediction prediction;
  prediction.avail_id = avail_id;
  prediction.t_star = t_star;
  prediction.num_steps = per_step.size();
  prediction.estimate_days = FusePredictions(config().fusion, per_step);
  prediction.band_low = *std::min_element(per_step.begin(), per_step.end());
  prediction.band_high = *std::max_element(per_step.begin(), per_step.end());
  prediction.top_features = TopContributions(
      models.model(last), models.BuildInputRow(view, row, last),
      models.input_names(last), top_k);
  prediction.bundle_version = version_;
  return prediction;
}

StatusOr<ServePrediction> ModelBundle::ScoreReferenceAvail(
    std::int64_t avail_id, double t_star, std::size_t top_k) const {
  const ModelingView& view = *estimator_->shared_view();
  const int row = view.dynamic.RowOf(avail_id);
  if (row < 0) {
    return Status::NotFound("avail " + std::to_string(avail_id) +
                            " is not in the bundle's reference fleet");
  }
  const TimelineModelSet& models = estimator_->models();
  const auto r = static_cast<std::size_t>(row);
  const std::size_t last = LastStep(grid(), t_star);
  std::vector<double> per_step;
  per_step.reserve(last + 1);
  for (std::size_t step = 0; step <= last; ++step) {
    per_step.push_back(
        models.model(step).Predict(models.BuildInputRow(view, r, step)));
  }
  return FinishPrediction(avail_id, t_star, view, r, per_step, top_k);
}

std::vector<StatusOr<ServePrediction>> ModelBundle::ScoreBatch(
    const std::vector<ScoreRequest>& requests,
    const Parallelism& parallelism) const {
  std::vector<StatusOr<ServePrediction>> out;
  out.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out.emplace_back(Status::Internal("unscored"));  // placeholder
  }

  // Validate every request and assemble the valid ones into one temporary
  // dataset. Ids are remapped to dense temporaries so concurrent clients
  // may reuse ids without colliding inside a batch.
  Dataset batch_data;
  std::vector<std::size_t> valid_slots;  ///< request index per dataset row.
  std::size_t max_last = 0;  ///< the deepest grid step any answer reads.
  std::int64_t next_rcc_id = 1;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ScoreRequest& request = requests[i];
    const std::int64_t temp_id =
        static_cast<std::int64_t>(valid_slots.size()) + 1;

    // Same semantic gate as the training pipeline's dataset checks; runs
    // on the caller's ids so error messages match what the client sent.
    // Requests arriving through ParseScoreRequest were already screened,
    // but in-process callers construct ScoreRequests directly.
    Status status = CheckRequestIntegrity(request.avail, request.rccs);
    if (!status.ok()) {
      out[i] = Status::InvalidArgument("bad request: " + status.message());
      continue;
    }

    Avail avail = request.avail;
    avail.id = temp_id;
    status = batch_data.avails.Add(std::move(avail));
    if (!status.ok()) {
      out[i] = status;
      continue;
    }
    for (const Rcc& original : request.rccs) {
      Rcc rcc = original;
      rcc.id = next_rcc_id++;
      rcc.avail_id = temp_id;
      status = batch_data.rccs.Add(std::move(rcc));
      if (!status.ok()) break;
    }
    if (!status.ok()) {
      out[i] = status;
      continue;
    }
    valid_slots.push_back(i);
    max_last = std::max(max_last, LastStep(grid(), request.t_star));
  }
  if (valid_slots.empty()) return out;

  // One feature-engineering sweep for the whole micro-batch, over only
  // what the answers read: the grid prefix 0..max_last, and at each step
  // only that step model's selected columns. The tensor block reuses the
  // incremental StatStructure path and the ParallelFor substrate exactly
  // like training does, so every filled cell is bit-identical to it.
  std::vector<std::int64_t> temp_ids;
  temp_ids.reserve(valid_slots.size());
  for (std::size_t row = 0; row < valid_slots.size(); ++row) {
    temp_ids.push_back(static_cast<std::int64_t>(row) + 1);
  }
  const TimelineModelSet& models = estimator_->models();
  const std::vector<double> prefix(
      grid().begin(),
      grid().begin() + static_cast<std::ptrdiff_t>(max_last + 1));
  const FeatureEngineer engineer(&batch_data);
  const ModelingView view =
      BuildModelingView(batch_data, engineer, temp_ids, prefix, parallelism,
                        models.selected_by_step());

  // Batched scoring: one PredictPerStep sweep over the prefix drives the
  // breadth-first batch scorer over the whole micro-batch per step —
  // bit-identical to the per-row BuildInputRow + Predict traversal
  // ScoreReferenceAvail runs. BuildInputRow survives only for the single
  // attribution input FinishPrediction builds per request.
  const std::vector<std::vector<double>> per_step_all =
      models.PredictPerStep(view);
  for (std::size_t row = 0; row < valid_slots.size(); ++row) {
    const std::size_t slot = valid_slots[row];
    const ScoreRequest& request = requests[slot];
    const std::size_t last = LastStep(grid(), request.t_star);
    std::vector<double> per_step;
    per_step.reserve(last + 1);
    for (std::size_t step = 0; step <= last; ++step) {
      per_step.push_back(per_step_all[step][row]);
    }
    out[slot] = FinishPrediction(request.avail.id, request.t_star, view, row,
                                 per_step, request.top_k);
  }
  return out;
}

}  // namespace domd
