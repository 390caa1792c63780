// util/json_parse.hpp: strict RFC 8259 parser with exact number round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

using dimmer::util::RequireError;
using dimmer::util::json::JsonParseError;
using dimmer::util::json::parse;
using dimmer::util::json::Value;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_EQ(parse("null").kind(), Value::Kind::kNull);
  EXPECT_DOUBLE_EQ(parse("1.5").as_double(), 1.5);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, ObjectKeepsDocumentOrderAndFinds) {
  const Value v = parse("{\"b\": 1, \"a\": 2}");
  ASSERT_EQ(v.as_object().size(), 2u);
  EXPECT_EQ(v.as_object()[0].first, "b");
  EXPECT_EQ(v.as_object()[1].first, "a");
  EXPECT_EQ(v.at("a").as_i64(), 2);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), RequireError);
}

TEST(JsonParse, NestedStructures) {
  const Value v = parse("{\"xs\": [1, [2, 3], {\"k\": null}]}");
  const auto& xs = v.at("xs").as_array();
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[1].as_array()[1].as_i64(), 3);
  EXPECT_EQ(xs[2].at("k").kind(), Value::Kind::kNull);
}

TEST(JsonParse, DoubleRoundTripIsBitExact) {
  // json_number is "%.17g"; parsing it back must reproduce every finite
  // double bit-for-bit — journaled results depend on it.
  const double cases[] = {0.0,
                          -0.0,
                          1.0 / 3.0,
                          6.02214076e23,
                          -2.2250738585072014e-308,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min(),
                          0.1 + 0.2};
  for (double x : cases) {
    const std::string text = dimmer::util::json_number(x);
    const double back = parse(text).as_double();
    EXPECT_EQ(std::signbit(back), std::signbit(x)) << text;
    EXPECT_EQ(back, x) << text;
  }
}

TEST(JsonParse, U64FullRangeSurvives) {
  // Seeds and counters must not pass through a double (2^53 cliff).
  const std::uint64_t big = 18446744073709551615ULL;  // 2^64 - 1
  EXPECT_EQ(parse("18446744073709551615").as_u64(), big);
  EXPECT_EQ(parse("0").as_u64(), 0u);
  const std::uint64_t odd = 9007199254740993ULL;  // 2^53 + 1: not a double
  EXPECT_EQ(parse("9007199254740993").as_u64(), odd);
}

TEST(JsonParse, U64RejectsFractionsExponentsAndNegatives) {
  EXPECT_THROW(parse("1.5").as_u64(), RequireError);
  EXPECT_THROW(parse("1e3").as_u64(), RequireError);
  EXPECT_THROW(parse("-1").as_u64(), RequireError);
  EXPECT_THROW(parse("18446744073709551616").as_u64(), RequireError);
  EXPECT_THROW(parse("2.5").as_i64(), RequireError);
  EXPECT_EQ(parse("-9").as_i64(), -9);
}

TEST(JsonParse, IntKeepsItsRangeAndThrowsOutsideIt) {
  EXPECT_EQ(parse("2147483647").as_int(), 2147483647);
  EXPECT_EQ(parse("-2147483648").as_int(), -2147483647 - 1);
  EXPECT_EQ(parse("-9").as_int(), -9);
  // One past either end, and 2^32, which a bare cast wraps to 0.
  EXPECT_THROW(parse("2147483648").as_int(), RequireError);
  EXPECT_THROW(parse("-2147483649").as_int(), RequireError);
  EXPECT_THROW(parse("4294967296").as_int(), RequireError);
  EXPECT_THROW(parse("2.5").as_int(), RequireError);
  EXPECT_THROW(parse("\"7\"").as_int(), RequireError);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse("\"a\\n\\t\\\"b\\\\\"").as_string(), "a\n\t\"b\\");
  EXPECT_EQ(parse("\"\\u00e9\"").as_string(), "\xc3\xa9");   // é as UTF-8
  EXPECT_EQ(parse("\"\\u0041\"").as_string(), "A");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), JsonParseError);
  EXPECT_THROW(parse("{"), JsonParseError);
  EXPECT_THROW(parse("[1,]"), JsonParseError);
  EXPECT_THROW(parse("{\"a\": 1,}"), JsonParseError);
  EXPECT_THROW(parse("01"), JsonParseError);      // leading zero
  EXPECT_THROW(parse("1 2"), JsonParseError);     // trailing garbage
  EXPECT_THROW(parse("'a'"), JsonParseError);     // single quotes
  EXPECT_THROW(parse("{\"a\": 1, \"a\": 2}"), JsonParseError);  // dup key
  EXPECT_THROW(parse("{\"t\": tru"), JsonParseError);  // torn literal
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    parse("{\"a\": 1,\n  !}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_GT(e.column(), 1);
  }
}

TEST(JsonParse, DepthLimitIsEnforced) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_THROW(parse(deep), JsonParseError);
  // A modestly nested document is fine.
  EXPECT_NO_THROW(parse("[[[[[[[[[[1]]]]]]]]]]"));
}

TEST(JsonParse, NumberLexemeIsPreservedVerbatim) {
  EXPECT_EQ(parse("1.2500").number_lexeme(), "1.2500");
  EXPECT_EQ(parse("-0.0").number_lexeme(), "-0.0");
}

TEST(JsonParse, TypeMismatchesThrow) {
  EXPECT_THROW(parse("1").as_string(), RequireError);
  EXPECT_THROW(parse("\"x\"").as_double(), RequireError);
  EXPECT_THROW(parse("[1]").as_object(), RequireError);
  EXPECT_THROW(parse("null").as_bool(), RequireError);
}
