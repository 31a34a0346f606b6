// obs::Json — the value type every observability artifact is built from
// and parsed back with. Covers dump/parse round-trips, insertion-order
// preservation, number formatting, escaping, and strict error reporting.
#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"

namespace hlsw::obs {
namespace {

Json parse_ok(const std::string& text) {
  Json out;
  std::string err;
  EXPECT_TRUE(Json::parse(text, &out, &err)) << text << " : " << err;
  return out;
}

TEST(obs_json, ScalarsDumpCompactly) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json(0).dump(), "0");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(obs_json, IntegralDoublesPrintWithoutExponent) {
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
  EXPECT_EQ(Json(-250000.0).dump(), "-250000");
  // 2^53, the largest exactly-representable integer, still prints exactly.
  EXPECT_EQ(Json(9007199254740992.0).dump(), "9007199254740992");
}

TEST(obs_json, NonIntegralNumbersRoundTrip) {
  for (double v : {0.5, -3.25, 1e-9, 123.456789012345, 2.2250738585072014e-308}) {
    const Json parsed = parse_ok(Json(v).dump());
    EXPECT_EQ(parsed.as_double(), v) << Json(v).dump();
  }
  // Hand-written RFC 8259 spellings the writer never emits parse too.
  EXPECT_EQ(parse_ok("-0").as_double(), 0.0);
  EXPECT_EQ(parse_ok("-12.5").as_double(), -12.5);
  EXPECT_EQ(parse_ok("1e3").as_double(), 1000.0);
  EXPECT_EQ(parse_ok("2.5E-1").as_double(), 0.25);
  EXPECT_EQ(parse_ok("-1.5e+2").as_double(), -150.0);
}

TEST(obs_json, CompactObjectHasNoSpaces) {
  const Json j = Json::object().set("a", 1).set("b", "x");
  // hls::to_json() consumers substring-match on "key":value — the compact
  // form must never insert spaces after ':' or ','.
  EXPECT_EQ(j.dump(), "{\"a\":1,\"b\":\"x\"}");
}

TEST(obs_json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zebra", 1).set("apple", 2).set("mango", 3);
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.items()[0].first, "zebra");
  EXPECT_EQ(j.items()[1].first, "apple");
  EXPECT_EQ(j.items()[2].first, "mango");
  // Overwriting keeps the original position.
  j.set("apple", 99);
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.items()[1].first, "apple");
  EXPECT_EQ(j.items()[1].second.as_int(), 99);
}

TEST(obs_json, FindReturnsNullForMissingKeys) {
  const Json j = Json::object().set("present", 1);
  ASSERT_NE(j.find("present"), nullptr);
  EXPECT_EQ(j.find("absent"), nullptr);
  EXPECT_EQ(Json(5).find("x"), nullptr);  // non-objects have no keys
}

TEST(obs_json, StringEscapingRoundTrips) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  const Json parsed = parse_ok(Json(nasty).dump());
  EXPECT_EQ(parsed.as_string(), nasty);
}

TEST(obs_json, ParseDecodesUnicodeEscapes) {
  const Json j = parse_ok("\"\\u0041\\u00e9\\u20ac\"");
  EXPECT_EQ(j.as_string(), "A\xc3\xa9\xe2\x82\xac");  // A, é, €
}

TEST(obs_json, NestedDocumentRoundTrips) {
  Json doc = Json::object()
                 .set("tool", "hlsw.test")
                 .set("counts", Json::array().push(1).push(2).push(3))
                 .set("nested", Json::object().set("ok", true).set("v", 1.5));
  for (int indent : {-1, 0, 2}) {
    const Json back = parse_ok(doc.dump(indent));
    ASSERT_TRUE(back.is_object());
    EXPECT_EQ(back.find("tool")->as_string(), "hlsw.test");
    ASSERT_EQ(back.find("counts")->size(), 3u);
    EXPECT_EQ(back.find("counts")->at(2).as_int(), 3);
    EXPECT_TRUE(back.find("nested")->find("ok")->as_bool());
    EXPECT_EQ(back.find("nested")->find("v")->as_double(), 1.5);
  }
}

TEST(obs_json, PrettyDumpIndentsAndParsesBack) {
  const Json doc =
      Json::object().set("a", Json::array().push(1)).set("b", Json::object());
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find("\n"), std::string::npos);
  EXPECT_NE(pretty.find("  \"a\""), std::string::npos);
  const Json back = parse_ok(pretty);
  EXPECT_EQ(back.dump(), doc.dump());
}

TEST(obs_json, ParseRejectsMalformedInput) {
  Json out;
  std::string err;
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1} trailing", "[1 2]", "{\"a\" 1}", "nul", "+5",
        // Numbers outside the RFC 8259 grammar, or not finite.
        "-nan", "-infinity", "-inf", "1e400", "-1e400", "[1e400]", "0x10",
        "01", "-01", "1.", "-", ".5", "1e", "1e+", "1.e5"}) {
    err.clear();
    EXPECT_FALSE(Json::parse(bad, &out, &err)) << "accepted: " << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

TEST(obs_json, ParseAcceptsWhitespaceAroundTokens) {
  const Json j = parse_ok("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ");
  EXPECT_EQ(j.find("a")->size(), 2u);
  EXPECT_TRUE(j.find("b")->is_null());
}

TEST(obs_json, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace hlsw::obs
