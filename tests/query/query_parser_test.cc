#include "query/query_parser.h"

#include <gtest/gtest.h>

#include <string>

namespace domd {
namespace {

TEST(QueryParserTest, PaperStyleQuery) {
  // The Fig.-3-shaped query behind the feature "G1-SETTLED_AVG_AMT" at 50%.
  const auto parsed = ParseStatusQuery(
      "SELECT AVG(AMOUNT) FROM RCC WHERE STATUS = SETTLED AND TYPE = G "
      "AND SWLIN LIKE '1%' AT 50");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->query.aggregate, AggregateFn::kAvg);
  EXPECT_EQ(parsed->query.attribute, RccAttribute::kSettledAmount);
  EXPECT_EQ(parsed->query.category, RccStatusCategory::kSettled);
  ASSERT_TRUE(parsed->query.type_filter.has_value());
  EXPECT_EQ(*parsed->query.type_filter, RccType::kGrowth);
  EXPECT_EQ(parsed->query.swlin_level, 1);
  EXPECT_EQ(parsed->query.swlin_prefix, 1);
  EXPECT_FALSE(parsed->query.avail_filter.has_value());
  EXPECT_DOUBLE_EQ(parsed->t_star, 50.0);
}

TEST(QueryParserTest, CountWithAvailFilter) {
  const auto parsed = ParseStatusQuery(
      "select count from rcc where status = active and avail = 7 at 75.5");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->query.aggregate, AggregateFn::kCount);
  EXPECT_EQ(parsed->query.category, RccStatusCategory::kActive);
  ASSERT_TRUE(parsed->query.avail_filter.has_value());
  EXPECT_EQ(*parsed->query.avail_filter, 7);
  EXPECT_DOUBLE_EQ(parsed->t_star, 75.5);
}

TEST(QueryParserTest, CaseInsensitiveAndCountParens) {
  const auto parsed = ParseStatusQuery(
      "SeLeCt CoUnT() fRoM RCC wHeRe StAtUs = CrEaTeD aT 0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->query.category, RccStatusCategory::kCreated);
  EXPECT_DOUBLE_EQ(parsed->t_star, 0.0);
}

TEST(QueryParserTest, DurationAggregatesAndLevel2) {
  const auto parsed = ParseStatusQuery(
      "SELECT MAX(DURATION) FROM RCC WHERE STATUS = SETTLED AND "
      "SWLIN LIKE '43%' AT 100");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->query.aggregate, AggregateFn::kMax);
  EXPECT_EQ(parsed->query.attribute, RccAttribute::kDuration);
  EXPECT_EQ(parsed->query.swlin_level, 2);
  EXPECT_EQ(parsed->query.swlin_prefix, 43);
}

TEST(QueryParserTest, AttributeAliases) {
  EXPECT_EQ(ParseStatusQuery("SELECT SUM(AMT) FROM RCC WHERE STATUS = "
                             "SETTLED AT 10")
                ->query.attribute,
            RccAttribute::kSettledAmount);
  EXPECT_EQ(ParseStatusQuery("SELECT AVG(DUR) FROM RCC WHERE STATUS = "
                             "SETTLED AT 10")
                ->query.attribute,
            RccAttribute::kDuration);
}

TEST(QueryParserTest, RejectsMalformedQueries) {
  const char* bad[] = {
      "",
      "SELECT",
      "SELECT COUNT FROM RCC AT 10",  // no WHERE
      "SELECT COUNT FROM RCC WHERE TYPE = G AT 10",  // no STATUS
      "SELECT COUNT FROM RCC WHERE STATUS = OPEN AT 10",
      "SELECT MEDIAN(AMOUNT) FROM RCC WHERE STATUS = SETTLED AT 10",
      "SELECT SUM(PRICE) FROM RCC WHERE STATUS = SETTLED AT 10",
      "SELECT COUNT FROM AVAILS WHERE STATUS = SETTLED AT 10",
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED",        // no AT
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED AT ten",  // non-numeric
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED AT 10 garbage",
      "SELECT COUNT FROM RCC WHERE SWLIN LIKE '123%' AND STATUS = SETTLED "
      "AT 10",  // level-3 prefix unsupported
      "SELECT COUNT FROM RCC WHERE SWLIN LIKE '4' AND STATUS = SETTLED AT "
      "10",  // missing %
      "SELECT COUNT FROM RCC WHERE SWLIN LIKE 'x%' AND STATUS = SETTLED AT "
      "10",  // non-digit prefix
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED AND TYPE = Z AT 10",
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED AND AVAIL = abc AT 10",
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED AND SWLIN LIKE '4% AT "
      "10",  // unterminated string
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseStatusQuery(text).ok()) << text;
  }
}

TEST(QueryParserTest, AvailIdMustBeAnExactInteger) {
  // Fractional, beyond int64 and beyond 2^53 (where ids alias as doubles):
  // all rejected before any double-to-integer cast.
  for (const char* id : {"1.5", "99999999999999999999999", "9007199254740994",
                         "-9007199254740994"}) {
    const std::string text =
        std::string("SELECT COUNT FROM RCC WHERE STATUS = SETTLED AND ") +
        "AVAIL = " + id + " AT 10";
    const auto parsed = ParseStatusQuery(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
  const auto largest = ParseStatusQuery(
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED AND AVAIL = "
      "9007199254740991 AT 10");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(*largest->query.avail_filter, 9007199254740991);
}

TEST(QueryParserTest, FormatParseRoundTrip) {
  StatusQuery query;
  query.category = RccStatusCategory::kActive;
  query.type_filter = RccType::kNewGrowth;
  query.swlin_level = 1;
  query.swlin_prefix = 9;
  query.aggregate = AggregateFn::kSum;
  query.attribute = RccAttribute::kSettledAmount;
  query.avail_filter = 42;

  const std::string text = FormatStatusQuery(query, 62.5);
  const auto parsed = ParseStatusQuery(text);
  ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status();
  EXPECT_EQ(parsed->query.category, query.category);
  EXPECT_EQ(parsed->query.type_filter, query.type_filter);
  EXPECT_EQ(parsed->query.swlin_level, query.swlin_level);
  EXPECT_EQ(parsed->query.swlin_prefix, query.swlin_prefix);
  EXPECT_EQ(parsed->query.aggregate, query.aggregate);
  EXPECT_EQ(parsed->query.avail_filter, query.avail_filter);
  EXPECT_DOUBLE_EQ(parsed->t_star, 62.5);
}

TEST(QueryParserTest, FormatCountQuery) {
  StatusQuery query;
  query.category = RccStatusCategory::kCreated;
  EXPECT_EQ(FormatStatusQuery(query, 10.0),
            "SELECT COUNT FROM RCC WHERE STATUS = CREATED AT 10");
}

TEST(QueryParserTest, GroupByClause) {
  const auto by_type = ParseStatusQuery(
      "SELECT COUNT FROM RCC WHERE STATUS = SETTLED GROUP BY TYPE AT 50");
  ASSERT_TRUE(by_type.ok()) << by_type.status();
  ASSERT_TRUE(by_type->group_by.has_value());
  EXPECT_TRUE(by_type->group_by->by_type);
  EXPECT_EQ(by_type->group_by->swlin_level, 0);

  const auto both = ParseStatusQuery(
      "SELECT SUM(AMOUNT) FROM RCC WHERE STATUS = CREATED "
      "GROUP BY TYPE, SWLIN(1) AT 75");
  ASSERT_TRUE(both.ok()) << both.status();
  EXPECT_TRUE(both->group_by->by_type);
  EXPECT_EQ(both->group_by->swlin_level, 1);

  const auto level2 = ParseStatusQuery(
      "SELECT COUNT FROM RCC WHERE STATUS = ACTIVE GROUP BY SWLIN(2) AT 10");
  ASSERT_TRUE(level2.ok());
  EXPECT_FALSE(level2->group_by->by_type);
  EXPECT_EQ(level2->group_by->swlin_level, 2);

  EXPECT_FALSE(ParseStatusQuery("SELECT COUNT FROM RCC WHERE STATUS = "
                                "SETTLED GROUP BY TYPE, SWLIN(2) AT 10")
                   .ok());
  EXPECT_FALSE(ParseStatusQuery("SELECT COUNT FROM RCC WHERE STATUS = "
                                "SETTLED GROUP BY SHIP AT 10")
                   .ok());
  EXPECT_FALSE(ParseStatusQuery("SELECT COUNT FROM RCC WHERE STATUS = "
                                "SETTLED AND TYPE = G GROUP BY TYPE AT 10")
                   .ok());
  EXPECT_FALSE(ParseStatusQuery("SELECT COUNT FROM RCC WHERE STATUS = "
                                "SETTLED GROUP BY SWLIN(3) AT 10")
                   .ok());
}

TEST(QueryParserTest, ParsedQueryExecutesOnEngine) {
  // End-to-end: text -> StatusQuery -> Algorithm StatusQ.
  Dataset data;
  Avail a;
  a.id = 1;
  a.status = AvailStatus::kClosed;
  a.planned_start = Date::FromCivil(2020, 1, 1);
  a.planned_end = Date::FromCivil(2020, 4, 10);
  a.actual_start = a.planned_start;
  a.actual_end = a.planned_end;
  ASSERT_TRUE(data.avails.Add(a).ok());
  Rcc r;
  r.id = 1;
  r.avail_id = 1;
  r.type = RccType::kGrowth;
  r.swlin = *Swlin::Parse("434-11-001");
  r.creation_date = a.actual_start + 10;
  r.settled_date = a.actual_start + 40;
  r.settled_amount = 8000;
  ASSERT_TRUE(data.rccs.Add(r).ok());

  StatusQueryEngine engine(&data, IndexBackend::kAvlTree);
  const auto parsed = ParseStatusQuery(
      "SELECT SUM(AMOUNT) FROM RCC WHERE STATUS = SETTLED AND TYPE = G "
      "AND SWLIN LIKE '4%' AT 90");
  ASSERT_TRUE(parsed.ok());
  const auto value = engine.Execute(parsed->query, parsed->t_star);
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(*value, 8000.0);
}

}  // namespace
}  // namespace domd
