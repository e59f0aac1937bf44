// Tests for the detached-predict wire decoder: every integer member of the
// avail, its RCCs and the request is read through the checked
// JsonValue::Integer<T>, so a non-integral, out-of-range or above-2^53
// value is INVALID_ARGUMENT rather than an undefined double-to-integer
// cast (run under UBSan in CI).

#include "serve/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "serve/json.h"

namespace domd {
namespace {

constexpr const char* kAvail =
    R"({"id": 7, "ship_id": 3, "status": "ongoing",)"
    R"( "planned_start": "2020-01-01", "planned_end": "2020-06-01",)"
    R"( "actual_start": "2020-01-05", "ship_class": 1, "rmc_id": 2,)"
    R"( "avail_type": 1, "homeport": 4, "prior_avail_count": 2,)"
    R"( "crew_size": 300})";
constexpr const char* kRcc =
    R"({"id": 11, "avail_id": 7, "type": "G", "swlin": 12345678,)"
    R"( "creation_date": "2020-02-01"})";

// The bad values: huge, hugely negative, fractional, and an even integer
// just above 2^53 that a double holds exactly but cannot keep distinct
// from its neighbours.
const char* const kBadIntegers[] = {"1e300", "-1e300", "1.5",
                                    "9007199254740994"};

JsonValue ParseOrDie(const std::string& text) {
  auto value = JsonValue::Parse(text);
  EXPECT_TRUE(value.ok()) << value.status() << " in " << text;
  return value.ok() ? *value : JsonValue::Object();
}

/// A valid detached request with `key` in `scope` ("avail", "rcc" or
/// "request") overwritten by the JSON literal `literal`.
JsonValue Request(const std::string& scope, const std::string& key,
                  const std::string& literal) {
  JsonValue avail = ParseOrDie(kAvail);
  JsonValue rcc = ParseOrDie(kRcc);
  JsonValue request = JsonValue::Object();
  request.Set("t_star", JsonValue::Number(50));
  if (!key.empty()) {
    JsonValue& target =
        scope == "avail" ? avail : scope == "rcc" ? rcc : request;
    target.Set(key, ParseOrDie(literal));
  }
  JsonValue rccs = JsonValue::Array();
  rccs.Append(std::move(rcc));
  request.Set("avail", std::move(avail));
  request.Set("rccs", std::move(rccs));
  return request;
}

TEST(WireTest, ValidDetachedRequestParses) {
  const auto parsed = ParseScoreRequest(Request("", "", ""));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->avail.id, 7);
  EXPECT_EQ(parsed->avail.crew_size, 300);
  ASSERT_EQ(parsed->rccs.size(), 1u);
  EXPECT_EQ(parsed->rccs[0].id, 11);
  EXPECT_EQ(parsed->top_k, 5u);  // default when absent
}

TEST(WireTest, EveryIntegerMemberRejectsNonIntegersAndHugeValues) {
  const std::pair<const char*, const char*> members[] = {
      {"avail", "id"},         {"avail", "ship_id"},
      {"avail", "ship_class"}, {"avail", "rmc_id"},
      {"avail", "avail_type"}, {"avail", "homeport"},
      {"avail", "prior_avail_count"},
      {"avail", "crew_size"},  {"rcc", "id"},
      {"rcc", "avail_id"},     {"rcc", "swlin"},
      {"request", "top_k"},
  };
  for (const auto& [scope, key] : members) {
    for (const char* bad : kBadIntegers) {
      const auto parsed = ParseScoreRequest(Request(scope, key, bad));
      ASSERT_FALSE(parsed.ok()) << scope << "." << key << " = " << bad;
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << scope << "." << key << " = " << bad;
    }
  }
}

TEST(WireTest, IntegersOutsideTheFieldTypeAreRejected) {
  // Integral and below 2^53, but outside int (crew_size) or size_t (top_k).
  for (const auto& [scope, key, value] :
       {std::tuple<const char*, const char*, const char*>{
            "avail", "crew_size", "4294967296"},
        {"request", "top_k", "-1"}}) {
    const auto parsed = ParseScoreRequest(Request(scope, key, value));
    ASSERT_FALSE(parsed.ok()) << key << " = " << value;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace domd
