// Tests for the serving JSON document model: parse/serialize round-trips,
// escape handling, error cases, and the lenient typed accessors the wire
// codec builds on.

#include "serve/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace domd {
namespace {

TEST(JsonTest, ParsesScalars) {
  auto null = JsonValue::Parse("null");
  ASSERT_TRUE(null.ok());
  EXPECT_TRUE(null->is_null());

  auto truthy = JsonValue::Parse(" true ");
  ASSERT_TRUE(truthy.ok());
  EXPECT_TRUE(truthy->is_bool());
  EXPECT_TRUE(truthy->bool_value());

  auto number = JsonValue::Parse("-12.5e2");
  ASSERT_TRUE(number.ok());
  EXPECT_TRUE(number->is_number());
  EXPECT_DOUBLE_EQ(number->number_value(), -1250.0);

  auto text = JsonValue::Parse("\"hi\"");
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(text->is_string());
  EXPECT_EQ(text->string_value(), "hi");
}

TEST(JsonTest, ParsesNestedDocument) {
  auto doc = JsonValue::Parse(
      R"({"avail": {"id": 7, "ok": true}, "rccs": [1, 2, 3], "t": null})");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is_object());
  const JsonValue* avail = doc->Find("avail");
  ASSERT_NE(avail, nullptr);
  EXPECT_DOUBLE_EQ(avail->NumberOr("id", 0), 7);
  EXPECT_TRUE(avail->BoolOr("ok", false));
  const JsonValue* rccs = doc->Find("rccs");
  ASSERT_NE(rccs, nullptr);
  ASSERT_TRUE(rccs->is_array());
  ASSERT_EQ(rccs->items().size(), 3u);
  EXPECT_DOUBLE_EQ(rccs->items()[1].number_value(), 2.0);
  ASSERT_NE(doc->Find("t"), nullptr);
  EXPECT_TRUE(doc->Find("t")->is_null());
}

TEST(JsonTest, StringEscapesRoundTrip) {
  const std::string raw = "line\nquote\"back\\slash\ttab";
  JsonValue value = JsonValue::String(raw);
  auto parsed = JsonValue::Parse(value.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->string_value(), raw);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto parsed = JsonValue::Parse("\"\\u00e9\\u20ac\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->string_value(), "\xC3\xA9\xE2\x82\xAC");  // é €
}

TEST(JsonTest, NumbersSerializeRoundTripExactly) {
  // Exact integers print without a decimal point.
  EXPECT_EQ(JsonValue::Number(42).Serialize(), "42");
  EXPECT_EQ(JsonValue::Number(-3).Serialize(), "-3");
  // Non-integers keep full round-trip precision.
  const double value = 86.79170664066879;
  auto parsed = JsonValue::Parse(JsonValue::Number(value).Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->number_value(), value);
}

TEST(JsonTest, ObjectKeepsInsertionOrder) {
  JsonValue object = JsonValue::Object();
  object.Set("zebra", JsonValue::Number(1));
  object.Set("alpha", JsonValue::Bool(false));
  object.Set("zebra", JsonValue::Number(2));  // overwrite keeps position.
  EXPECT_EQ(object.Serialize(), R"({"zebra":2,"alpha":false})");
}

TEST(JsonTest, TypedAccessorsFallBackOnMissingOrMistyped) {
  auto doc = JsonValue::Parse(R"({"n": "not a number", "s": 5})");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc->NumberOr("n", -1), -1);
  EXPECT_DOUBLE_EQ(doc->NumberOr("missing", 7), 7);
  EXPECT_EQ(doc->StringOr("s", "fallback"), "fallback");
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonTest, IntegerAccessorAcceptsExactInRangeIntegers) {
  auto doc = JsonValue::Parse(
      "{\"id\": 7, \"neg\": -3, \"big\": 9007199254740991}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->Integer<std::int64_t>("id", 0), 7);
  EXPECT_EQ(*doc->Integer<std::int64_t>("neg", 0), -3);
  EXPECT_EQ(*doc->Integer<std::int64_t>("big", 0), 9007199254740991);
  EXPECT_EQ(*doc->Integer<std::size_t>("absent", 5), 5u);
}

TEST(JsonTest, IntegerAccessorRejectsWhatACastWouldMangle) {
  // Each value here is undefined behaviour or a silent change of value
  // under a plain static_cast from the double.
  for (const char* value : {"1e300", "-1e300", "7.5", "9007199254740993",
                            "9007199254740992", "\"7\"", "null", "[1]"}) {
    auto doc = JsonValue::Parse(std::string("{\"id\": ") + value + "}");
    ASSERT_TRUE(doc.ok()) << value;
    const auto id = doc->Integer<std::int64_t>("id", 0);
    ASSERT_FALSE(id.ok()) << value;
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(id.status().message().rfind("id must be an integer", 0), 0u);
  }
  auto doc = JsonValue::Parse("{\"top_k\": -1, \"small\": 300}");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->Integer<std::size_t>("top_k", 5).ok());
  EXPECT_FALSE(doc->Integer<std::uint8_t>("small", 0).ok());
  EXPECT_FALSE(doc->Find("top_k")->AsInteger<std::size_t>("top_k").ok());
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad \\x escape\"").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("1 trailing").ok());
}

TEST(JsonTest, RejectsOverDeepNesting) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  for (int i = 0; i < 80; ++i) deep += "]";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(JsonValue::Number(std::numeric_limits<double>::quiet_NaN())
                .Serialize(),
            "null");
  EXPECT_EQ(
      JsonValue::Number(std::numeric_limits<double>::infinity()).Serialize(),
      "null");
  EXPECT_EQ(
      JsonValue::Number(-std::numeric_limits<double>::infinity()).Serialize(),
      "null");
}

TEST(JsonTest, ExtremeDoublesRoundTripBitExactly) {
  const double cases[] = {
      std::numeric_limits<double>::denorm_min(),   // 5e-324
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),          // smallest normal
      std::numeric_limits<double>::max(),          // 1.7976931348623157e308
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      0.1,                                         // classic repeating binary
      1.0 / 3.0,
      86.79170664066879,                           // needs all 17 digits
      9007199254740993.0,                          // 2^53 + 1 rounds; > 1e15
      -2.2250738585072011e-308,                    // the strtod stress value
  };
  for (const double value : cases) {
    auto parsed = JsonValue::Parse(JsonValue::Number(value).Serialize());
    ASSERT_TRUE(parsed.ok()) << value;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->number_value()),
              std::bit_cast<std::uint64_t>(value))
        << "round-trip changed bits of " << value;
  }
}

TEST(JsonTest, NegativeZeroKeepsItsSign) {
  // -0.0 is integer-valued, so a naive integer fast-path would print "0"
  // and silently flip the sign on the round-trip.
  EXPECT_EQ(JsonValue::Number(-0.0).Serialize(), "-0");
  auto parsed = JsonValue::Parse("-0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::signbit(parsed->number_value()));
  EXPECT_EQ(JsonValue::Number(0.0).Serialize(), "0");
}

}  // namespace
}  // namespace domd
