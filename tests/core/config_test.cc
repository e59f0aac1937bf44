#include "core/config.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace domd {
namespace {

TEST(ConfigTest, DefaultsMatchPaperSelectedPipeline) {
  // §5.2.2's selected parameters: Pearson k=60, XGBoost(-style GBT),
  // non-stacked, Pseudo-Huber(18), 30 trials, average fusion, x=10%.
  PipelineConfig config;
  EXPECT_EQ(config.selection, SelectionMethod::kPearson);
  EXPECT_EQ(config.num_features, 60u);
  EXPECT_EQ(config.model_family, ModelFamily::kGbt);
  EXPECT_EQ(config.architecture, Architecture::kNonStacked);
  EXPECT_EQ(config.loss, LossKind::kPseudoHuber);
  EXPECT_DOUBLE_EQ(config.huber_delta, 18.0);
  EXPECT_EQ(config.hpt_trials, 30);
  EXPECT_EQ(config.fusion, FusionMethod::kAverage);
  EXPECT_DOUBLE_EQ(config.window_width_pct, 10.0);
}

TEST(ConfigTest, MakeLossHonorsKindAndDelta) {
  PipelineConfig config;
  config.loss = LossKind::kSquared;
  EXPECT_EQ(config.MakeLoss().kind(), LossKind::kSquared);
  config.loss = LossKind::kAbsolute;
  EXPECT_EQ(config.MakeLoss().kind(), LossKind::kAbsolute);
  config.loss = LossKind::kPseudoHuber;
  config.huber_delta = 7.5;
  const Loss loss = config.MakeLoss();
  EXPECT_EQ(loss.kind(), LossKind::kPseudoHuber);
  EXPECT_DOUBLE_EQ(loss.delta(), 7.5);
}

/// A saved default config with the whitespace-separated token at `index`
/// replaced by `value` (token 0 is "pipeline_config", 1 the version, 2 the
/// selection method, 6 the loss kind).
std::string ConfigTextWith(std::size_t index, const std::string& value) {
  std::stringstream saved;
  PipelineConfig().Save(saved);
  std::vector<std::string> tokens;
  for (std::string token; saved >> token;) tokens.push_back(token);
  tokens.at(index) = value;
  std::string text;
  for (const std::string& token : tokens) text += token + "\n";
  return text;
}

TEST(ConfigTest, LoadRejectsQuantileAndUnknownLoss) {
  std::stringstream valid(ConfigTextWith(6, "2"));
  ASSERT_TRUE(PipelineConfig::Load(valid).ok());
  for (const char* loss : {"3", "99", "-1"}) {
    std::stringstream text(ConfigTextWith(6, loss));
    const auto loaded = PipelineConfig::Load(text);
    ASSERT_FALSE(loaded.ok()) << "loss = " << loss;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ConfigTest, LoadRejectsOutOfRangeEnums) {
  // selection, model family, architecture, fusion, split method.
  for (const std::size_t index : {2u, 4u, 5u, 9u, 18u}) {
    std::stringstream text(ConfigTextWith(index, "99"));
    const auto loaded = PipelineConfig::Load(text);
    ASSERT_FALSE(loaded.ok()) << "token " << index;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ConfigTest, MakeLossCoversQuantile) {
  PipelineConfig config;
  config.loss = LossKind::kQuantile;
  config.huber_delta = 0.9;
  const Loss loss = config.MakeLoss();
  EXPECT_EQ(loss.kind(), LossKind::kQuantile);
  EXPECT_DOUBLE_EQ(loss.tau(), 0.9);
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, ToStringMentionsKeyChoices) {
  PipelineConfig config;
  const std::string s = config.ToString();
  EXPECT_NE(s.find("Pearson"), std::string::npos);
  EXPECT_NE(s.find("k=60"), std::string::npos);
  EXPECT_NE(s.find("GBT"), std::string::npos);
  EXPECT_NE(s.find("non-stacked"), std::string::npos);
  EXPECT_NE(s.find("pseudo_huber"), std::string::npos);
  EXPECT_NE(s.find("average"), std::string::npos);
}

TEST(ConfigTest, EnumNames) {
  EXPECT_STREQ(ModelFamilyToString(ModelFamily::kElasticNet), "ElasticNet");
  EXPECT_STREQ(ArchitectureToString(Architecture::kStacked), "stacked");
  EXPECT_STREQ(FusionMethodToString(FusionMethod::kMin), "min");
  EXPECT_STREQ(FusionMethodToString(FusionMethod::kNone), "none");
}

}  // namespace
}  // namespace domd
