// Tests for the ModelBundle serving artifact: write/load round-trip,
// schema-compatibility gating, and the bit-identity contract between
// reference-fleet scoring, detached batch scoring, and the underlying
// estimator.

#include "serve/model_bundle.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "features/feature_catalog.h"
#include "serve/serve_test_fixture.h"

namespace domd {
namespace {

using testing_internal::GetServeFixture;
using testing_internal::MakeDetachedRequest;

bool BitIdentical(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Copies the fixture's v1 bundle to a fresh `name` directory and returns
/// its path.
std::string CopyFixtureBundle(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::copy(GetServeFixture().dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  return dir;
}

/// Rewrites the value of the `key` record of the real v2 MANIFEST in `dir`,
/// leaving every other line (and so every payload checksum) intact.
void SetManifestRecord(const std::string& dir, const std::string& key,
                       const std::string& value) {
  std::istringstream in(ReadFile(dir + "/MANIFEST"));
  std::string rewritten, line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) {
      line = key + " " + value;
      found = true;
    }
    rewritten += line + "\n";
  }
  ASSERT_TRUE(found) << key;
  std::ofstream out(dir + "/MANIFEST", std::ios::binary | std::ios::trunc);
  out << rewritten;
}

TEST(ModelBundleTest, WriteRejectsBadVersionTags) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_badtag";
  EXPECT_EQ(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                               dir, "")
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                               dir, "v 1")
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelBundleTest, LoadFromMissingDirectoryFails) {
  auto bundle = ModelBundle::Load("/nonexistent/bundle");
  EXPECT_EQ(bundle.status().code(), StatusCode::kIoError);
}

TEST(ModelBundleTest, RoundTripPreservesVersionSchemaAndFleet) {
  const auto& fixture = GetServeFixture();
  EXPECT_EQ(fixture.v1->version(), "v1");
  EXPECT_EQ(fixture.v2->version(), "v2");
  EXPECT_EQ(fixture.v1->schema_hash(), FeatureCatalogVersion());
  EXPECT_EQ(fixture.v1->data().avails.size(),
            fixture.pipeline.data.avails.size());
  EXPECT_EQ(fixture.v1->data().rccs.size(),
            fixture.pipeline.data.rccs.size());
  EXPECT_EQ(fixture.v1->grid(), fixture.estimator_v1->grid());
}

TEST(ModelBundleTest, SchemaHashMismatchRefusedAtLoad) {
  const std::string dir = CopyFixtureBundle("domd_bundle_badschema");
  SetManifestRecord(dir, "schema_hash", "12345");
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelBundleTest, BadManifestMagicRejected) {
  const std::string dir = ::testing::TempDir() + "/domd_bundle_badmagic";
  std::filesystem::create_directories(dir);
  {
    std::ofstream manifest(dir + "/MANIFEST");
    manifest << "not_a_bundle v9\n";
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelBundleTest, ManifestCardinalityMismatchRefused) {
  const std::string dir = CopyFixtureBundle("domd_bundle_badcounts");
  SetManifestRecord(dir, "avails", "9999");
  SetManifestRecord(dir, "rccs", "1");
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelBundleTest, ManifestRecordsAChecksumPerPayloadFile) {
  const auto& fixture = GetServeFixture();
  std::ifstream manifest(fixture.dir_v1 + "/MANIFEST");
  ASSERT_TRUE(manifest.good());
  std::string text((std::istreambuf_iterator<char>(manifest)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("domd_bundle v2"), std::string::npos);
  EXPECT_NE(text.find("checksum avails.csv "), std::string::npos);
  EXPECT_NE(text.find("checksum rccs.csv "), std::string::npos);
  EXPECT_NE(text.find("checksum models.txt "), std::string::npos);
}

TEST(ModelBundleTest, FlippedPayloadByteIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_flip";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  const std::string target = dir + "/models.txt";
  std::string bytes;
  {
    std::ifstream in(target, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 10u);
  bytes[10] = static_cast<char>(bytes[10] ^ 0x01);  // a single flipped bit.
  {
    std::ofstream out(target, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, TruncatedPayloadIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_trunc";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  std::filesystem::resize_file(dir + "/avails.csv", 64);
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, MissingManifestedFileIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_missing";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  std::filesystem::remove(dir + "/models.txt");
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, V2ManifestMissingAChecksumLineIsDataLoss) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_nosum";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(fixture.dir_v1, dir,
                        std::filesystem::copy_options::recursive);
  {
    // Rewrite the manifest keeping the v2 tag but dropping every checksum:
    // a v2 bundle without its integrity records is itself torn.
    std::ofstream manifest(dir + "/MANIFEST", std::ios::trunc);
    manifest << "domd_bundle v2\nversion v1\nschema_hash "
             << FeatureCatalogVersion() << "\navails "
             << fixture.pipeline.data.avails.size() << "\nrccs "
             << fixture.pipeline.data.rccs.size() << "\n";
  }
  auto bundle = ModelBundle::Load(dir);
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
}

TEST(ModelBundleTest, V1ManifestIsRejected) {
  // A v1 manifest carries no checksums, so nothing could verify its
  // payloads: both readers of a bundle refuse it outright.
  const auto& fixture = GetServeFixture();
  const std::string dir = CopyFixtureBundle("domd_bundle_legacy");
  {
    std::ofstream manifest(dir + "/MANIFEST", std::ios::trunc);
    manifest << "domd_bundle v1\nversion v1\nschema_hash "
             << FeatureCatalogVersion() << "\navails "
             << fixture.pipeline.data.avails.size() << "\nrccs "
             << fixture.pipeline.data.rccs.size() << "\n";
  }
  EXPECT_EQ(ModelBundle::Load(dir).status().code(),
            StatusCode::kInvalidArgument);
  const std::string dest = ::testing::TempDir() + "/domd_bundle_legacy_copy";
  std::filesystem::remove_all(dest);
  EXPECT_EQ(CopyBundleDurable(dir, dest).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(dest));
  EXPECT_FALSE(std::filesystem::exists(dest + ".tmp"));
}

TEST(ModelBundleTest, CopyBundleDurableReproducesEveryByte) {
  const auto& fixture = GetServeFixture();
  const std::string dest = ::testing::TempDir() + "/domd_bundle_copy";
  std::filesystem::remove_all(dest);
  ASSERT_TRUE(CopyBundleDurable(fixture.dir_v1, dest).ok());
  for (const char* name : {"MANIFEST", "models.txt", "avails.csv",
                           "rccs.csv"}) {
    EXPECT_EQ(ReadFile(dest + "/" + name),
              ReadFile(fixture.dir_v1 + "/" + name))
        << name;
  }
  EXPECT_FALSE(std::filesystem::exists(dest + ".tmp"));
}

TEST(ModelBundleTest, RewritingABundleReplacesItAtomically) {
  const auto& fixture = GetServeFixture();
  const std::string dir = ::testing::TempDir() + "/domd_bundle_republish";
  ASSERT_TRUE(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                                 dir, "first")
                  .ok());
  ASSERT_TRUE(ModelBundle::Write(*fixture.estimator_v1, fixture.pipeline.data,
                                 dir, "second")
                  .ok());
  auto bundle = ModelBundle::Load(dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ((*bundle)->version(), "second");
  // Neither the staging dir nor the displaced old bundle linger.
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + ".old"));
}

TEST(ModelBundleTest, ReferenceScoreMatchesEstimatorQuery) {
  // Every reference avail at every grid point, between grid points and
  // before the start: the bundle's scorer and the estimator's full query
  // agree bit for bit, attributions included.
  const auto& fixture = GetServeFixture();
  std::vector<double> t_stars = fixture.v1->grid();
  t_stars.push_back(55.0);
  t_stars.push_back(-5.0);
  for (const Avail& avail : fixture.pipeline.data.avails.rows()) {
    for (const double t_star : t_stars) {
      SCOPED_TRACE("avail " + std::to_string(avail.id) + " t* " +
                   std::to_string(t_star));
      const auto expected =
          fixture.estimator_v1->QueryAtLogicalTime(avail.id, t_star);
      const auto scored = fixture.v1->ScoreReferenceAvail(avail.id, t_star);
      ASSERT_TRUE(expected.ok()) << expected.status();
      ASSERT_TRUE(scored.ok()) << scored.status();
      EXPECT_TRUE(BitIdentical(scored->estimate_days,
                               expected->fused_estimate_days));
      EXPECT_EQ(scored->num_steps, expected->steps.size());
      EXPECT_EQ(scored->bundle_version, "v1");
      double low = expected->steps.front().estimated_delay_days;
      double high = low;
      for (const DomdStepEstimate& step : expected->steps) {
        low = std::min(low, step.estimated_delay_days);
        high = std::max(high, step.estimated_delay_days);
      }
      EXPECT_TRUE(BitIdentical(scored->band_low, low));
      EXPECT_TRUE(BitIdentical(scored->band_high, high));
      EXPECT_LE(scored->band_low, scored->estimate_days);
      EXPECT_GE(scored->band_high, scored->estimate_days);
      const auto& drivers = expected->steps.back().top_features;
      ASSERT_EQ(scored->top_features.size(), drivers.size());
      for (std::size_t k = 0; k < drivers.size(); ++k) {
        EXPECT_EQ(scored->top_features[k].feature_name,
                  drivers[k].feature_name);
        EXPECT_TRUE(BitIdentical(scored->top_features[k].contribution,
                                 drivers[k].contribution));
      }
    }
  }
}

TEST(ModelBundleTest, ScoreReferenceUnknownAvailFails) {
  const auto& fixture = GetServeFixture();
  EXPECT_FALSE(fixture.v1->ScoreReferenceAvail(999999, 100.0).ok());
}

TEST(ModelBundleTest, DetachedScoreBatchMatchesReferenceBitIdentically) {
  const auto& fixture = GetServeFixture();
  std::vector<ScoreRequest> requests;
  std::vector<std::int64_t> ids;
  for (std::size_t i = 0; i < 3 && i < fixture.pipeline.split.test.size();
       ++i) {
    ids.push_back(fixture.pipeline.split.test[i]);
    requests.push_back(MakeDetachedRequest(fixture.pipeline.data, ids.back(),
                                           /*t_star=*/100.0));
  }
  ASSERT_FALSE(requests.empty());

  const auto results = fixture.v1->ScoreBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    const auto reference = fixture.v1->ScoreReferenceAvail(ids[i], 100.0);
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(BitIdentical(results[i]->estimate_days,
                             reference->estimate_days));
    EXPECT_TRUE(BitIdentical(results[i]->band_low, reference->band_low));
    EXPECT_TRUE(BitIdentical(results[i]->band_high, reference->band_high));
    EXPECT_EQ(results[i]->num_steps, reference->num_steps);
    EXPECT_EQ(results[i]->bundle_version, "v1");
    // The response echoes the caller-local id, not the remapped one.
    EXPECT_EQ(results[i]->avail_id, requests[i].avail.id);
    ASSERT_EQ(results[i]->top_features.size(),
              reference->top_features.size());
    for (std::size_t k = 0; k < reference->top_features.size(); ++k) {
      EXPECT_EQ(results[i]->top_features[k].feature_name,
                reference->top_features[k].feature_name);
      EXPECT_TRUE(BitIdentical(results[i]->top_features[k].contribution,
                               reference->top_features[k].contribution));
    }
  }
}

/// A stacked-architecture bundle over the serving fixture's fleet, on a
/// finer grid than the fixture's non-stacked one (5 steps, not 3). Built
/// once per process.
const ModelBundle& StackedBundle() {
  static const ModelBundle& bundle = *[] {
    const auto& fixture = GetServeFixture();
    PipelineConfig config = testing_internal::FastConfig();
    config.architecture = Architecture::kStacked;
    auto estimator = DomdEstimator::Train(&fixture.pipeline.data, config,
                                          fixture.pipeline.split.train);
    EXPECT_TRUE(estimator.ok()) << estimator.status();
    const std::string dir = ::testing::TempDir() + "/domd_stacked_bundle." +
                            std::to_string(::getpid());
    EXPECT_TRUE(
        ModelBundle::Write(*estimator, fixture.pipeline.data, dir, "stacked")
            .ok());
    auto loaded = ModelBundle::Load(dir);
    EXPECT_TRUE(loaded.ok()) << loaded.status();
    return new std::shared_ptr<const ModelBundle>(std::move(*loaded));
  }()->get();
  return bundle;
}

/// Every field of two answers agrees bit for bit (the caller-local avail id
/// excepted: a detached answer echoes the request's, a reference answer
/// the fleet's).
void ExpectSameAnswer(const ServePrediction& got,
                      const ServePrediction& want) {
  EXPECT_TRUE(BitIdentical(got.t_star, want.t_star));
  EXPECT_TRUE(BitIdentical(got.estimate_days, want.estimate_days));
  EXPECT_TRUE(BitIdentical(got.band_low, want.band_low));
  EXPECT_TRUE(BitIdentical(got.band_high, want.band_high));
  EXPECT_EQ(got.num_steps, want.num_steps);
  EXPECT_EQ(got.bundle_version, want.bundle_version);
  ASSERT_EQ(got.top_features.size(), want.top_features.size());
  for (std::size_t k = 0; k < want.top_features.size(); ++k) {
    EXPECT_EQ(got.top_features[k].feature_name,
              want.top_features[k].feature_name);
    EXPECT_TRUE(BitIdentical(got.top_features[k].contribution,
                             want.top_features[k].contribution));
  }
}

/// Every grid t*, before the grid, past its end and between grid points.
std::vector<double> ProbeTStars(const ModelBundle& bundle) {
  std::vector<double> t_stars = bundle.grid();
  for (const double t : {-5.0, -0.001, 0.5, 37.5, 55.0, 99.999, 100.001,
                         250.0}) {
    t_stars.push_back(t);
  }
  return t_stars;
}

class ModelBundleScoreBatchTest : public ::testing::TestWithParam<bool> {
 protected:
  const ModelBundle& bundle() const {
    return GetParam() ? StackedBundle() : *GetServeFixture().v1;
  }
};

TEST_P(ModelBundleScoreBatchTest, SoloDetachedEqualsReferenceAtEveryTStar) {
  // The detached path engineers only the grid prefix the answer reads and
  // only the selected columns; the reference path reads the bundle's full
  // tensor. They must agree on every field at every t*.
  const auto& fixture = GetServeFixture();
  ASSERT_EQ(bundle().estimator().models().is_stacked(), GetParam());
  for (std::size_t i = 0; i < 4 && i < fixture.pipeline.split.test.size();
       ++i) {
    const std::int64_t id = fixture.pipeline.split.test[i];
    for (const double t_star : ProbeTStars(bundle())) {
      SCOPED_TRACE("avail " + std::to_string(id) + " t* " +
                   std::to_string(t_star));
      const auto solo = bundle().ScoreBatch(
          {MakeDetachedRequest(fixture.pipeline.data, id, t_star, 4)});
      const auto reference = bundle().ScoreReferenceAvail(id, t_star, 4);
      ASSERT_TRUE(solo[0].ok()) << solo[0].status();
      ASSERT_TRUE(reference.ok()) << reference.status();
      ExpectSameAnswer(*solo[0], *reference);
    }
  }
}

TEST_P(ModelBundleScoreBatchTest, MixedTStarBatchEqualsSoloAnswers) {
  // One batch whose slots read different grid prefixes (and one bad slot):
  // the batch sweeps to the deepest, and every slot still answers exactly
  // as it would alone.
  const auto& fixture = GetServeFixture();
  const std::vector<double> t_stars = ProbeTStars(bundle());
  std::vector<ScoreRequest> requests;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::int64_t id =
        fixture.pipeline.split.test[i % fixture.pipeline.split.test.size()];
    requests.push_back(MakeDetachedRequest(fixture.pipeline.data, id,
                                           t_stars[(i * 7) % t_stars.size()],
                                           1 + i % 5));
  }
  requests[5] = ScoreRequest{};  // invalid: must not shift its neighbours.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Parallelism parallelism;
    parallelism.num_threads = threads;
    const auto batch = bundle().ScoreBatch(requests, parallelism);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      SCOPED_TRACE("slot " + std::to_string(i));
      const auto solo = bundle().ScoreBatch({requests[i]});
      if (i == 5) {
        EXPECT_EQ(batch[i].status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(batch[i].ok()) << batch[i].status();
      ASSERT_TRUE(solo[0].ok()) << solo[0].status();
      EXPECT_EQ(batch[i]->avail_id, requests[i].avail.id);
      ExpectSameAnswer(*batch[i], *solo[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, ModelBundleScoreBatchTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Stacked" : "NonStacked";
                         });

TEST(ModelBundleTest, ScoreBatchAnswersEverySlotEvenWithBadRequests) {
  const auto& fixture = GetServeFixture();
  const std::int64_t good_id = fixture.pipeline.split.test.front();
  std::vector<ScoreRequest> requests;
  requests.push_back(MakeDetachedRequest(fixture.pipeline.data, good_id));
  requests.emplace_back();  // default avail: invalid (no dates).
  requests.push_back(MakeDetachedRequest(fixture.pipeline.data, good_id));

  const auto results = fixture.v1->ScoreBatch(requests);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(results[2].ok()) << results[2].status();
  // The bad middle slot must not shift or perturb its neighbors.
  EXPECT_TRUE(
      BitIdentical(results[0]->estimate_days, results[2]->estimate_days));
  const auto solo = fixture.v1->ScoreBatch({requests[0]});
  ASSERT_TRUE(solo[0].ok());
  EXPECT_TRUE(
      BitIdentical(results[0]->estimate_days, solo[0]->estimate_days));
}

TEST(ModelBundleTest, ScoreBatchParallelismIsBitIdentical) {
  const auto& fixture = GetServeFixture();
  std::vector<ScoreRequest> requests;
  for (std::size_t i = 0; i < 4 && i < fixture.pipeline.split.test.size();
       ++i) {
    requests.push_back(MakeDetachedRequest(fixture.pipeline.data,
                                           fixture.pipeline.split.test[i]));
  }
  Parallelism serial;
  serial.num_threads = 1;
  Parallelism parallel;
  parallel.num_threads = 4;
  const auto a = fixture.v1->ScoreBatch(requests, serial);
  const auto b = fixture.v1->ScoreBatch(requests, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_TRUE(BitIdentical(a[i]->estimate_days, b[i]->estimate_days));
    EXPECT_TRUE(BitIdentical(a[i]->band_low, b[i]->band_low));
    EXPECT_TRUE(BitIdentical(a[i]->band_high, b[i]->band_high));
  }
}

TEST(ModelBundleTest, DifferentStacksProduceDifferentEstimates) {
  // The v1/v2 fixture bundles must disagree on at least one test avail —
  // the hot-swap torn-model checks are vacuous otherwise.
  const auto& fixture = GetServeFixture();
  bool any_different = false;
  for (std::int64_t id : fixture.pipeline.split.test) {
    const auto a = fixture.v1->ScoreReferenceAvail(id, 100.0);
    const auto b = fixture.v2->ScoreReferenceAvail(id, 100.0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    if (!BitIdentical(a->estimate_days, b->estimate_days)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace domd
