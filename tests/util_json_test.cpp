// Tests for the shared JSON reader: the DOM it builds, and the inputs it
// must reject with a typed error carrying the byte offset.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace longtail::util::json {
namespace {

// The offset a rejected document reports; -1 when it was accepted.
long reject_offset(const std::string& text) {
  try {
    (void)parse(text);
  } catch (const JsonError& e) {
    return static_cast<long>(e.offset());
  }
  return -1;
}

TEST(Json, ParsesNestedDocument) {
  const Value doc = parse(R"(
    {"name": "bench", "runs": [{"ms": 1.5, "ok": true}, {"ms": -2e3}],
     "none": null, "flag": false})");
  ASSERT_EQ(doc.kind, Value::kObj);
  EXPECT_EQ(doc.find("name")->str_or(""), "bench");
  const Value* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->arr.size(), 2u);
  EXPECT_DOUBLE_EQ(runs->arr[0].find("ms")->num_or(0), 1.5);
  EXPECT_TRUE(runs->arr[0].find("ok")->b);
  EXPECT_DOUBLE_EQ(runs->arr[1].find("ms")->num_or(0), -2000.0);
  EXPECT_EQ(doc.find("none")->kind, Value::kNull);
  EXPECT_EQ(doc.find("flag")->kind, Value::kBool);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ObjectMembersKeepDocumentOrderAndFindReturnsFirst) {
  const Value doc = parse(R"({"b": 1, "a": 2, "b": 3})");
  ASSERT_EQ(doc.obj.size(), 3u);
  EXPECT_EQ(doc.obj[0].first, "b");
  EXPECT_EQ(doc.obj[1].first, "a");
  EXPECT_DOUBLE_EQ(doc.find("b")->num, 1.0);
}

TEST(Json, NumbersKeepTheirSourceText) {
  const Value doc = parse("[18446744073709551615, 0.25, -0, 1E+2]");
  ASSERT_EQ(doc.arr.size(), 4u);
  EXPECT_EQ(doc.arr[0].str, "18446744073709551615");
  EXPECT_EQ(doc.arr[1].str, "0.25");
  EXPECT_EQ(doc.arr[2].str, "-0");
  EXPECT_DOUBLE_EQ(doc.arr[3].num, 100.0);
}

TEST(Json, DecodesEscapes) {
  const Value doc = parse(R"(["a\"b\\c\/d\n\t\u0041", "\u00e9"])");
  EXPECT_EQ(doc.arr[0].str, "a\"b\\c/d\n\tA");
  EXPECT_EQ(doc.arr[1].str, "?");
}

TEST(Json, AcceptsAnyScalarAtTopLevelAndSurroundingWhitespace) {
  EXPECT_DOUBLE_EQ(parse(" \t\r\n42 \n").num, 42.0);
  EXPECT_EQ(parse("\"s\"").str, "s");
  EXPECT_EQ(parse("null").kind, Value::kNull);
  EXPECT_EQ(parse("[]").kind, Value::kArr);
  EXPECT_EQ(parse("{}").kind, Value::kObj);
}

TEST(Json, RejectsTrailingContent) {
  EXPECT_EQ(reject_offset("{} x"), 3);
  EXPECT_EQ(reject_offset("[1]]"), 3);
  EXPECT_EQ(reject_offset("1 2"), 2);
  EXPECT_EQ(reject_offset("truex"), 4);
}

TEST(Json, RejectsNumbersThatStrtodTakesButJsonDoesNot) {
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "Infinity", "0x1F",
                          "+1", ".5", "1.", "01", "1e", "1e+", "-"}) {
    EXPECT_GE(reject_offset(std::string("[") + bad + "]"), 0) << bad;
    EXPECT_GE(reject_offset(bad), 0) << bad;
  }
}

TEST(Json, RejectsMalformedStructure) {
  for (const char* bad :
       {"", "   ", "{", "[1,", "[1 2]", "{\"a\" 1}", "{\"a\": 1,}", "[1,]",
        "{1: 2}", "\"unterminated", "\"bad \\x escape\"", "\"\\u12G4\"",
        "\"raw\nnewline\"", "tru", "nul"})
    EXPECT_GE(reject_offset(bad), 0) << bad;
}

TEST(Json, ErrorNamesTheOffset) {
  try {
    (void)parse("{\"a\": [1, 2, oops]}");
    FAIL() << "accepted";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset(), 13u);
    EXPECT_NE(std::string(e.what()).find("offset 13"), std::string::npos)
        << e.what();
  }
}

TEST(Json, NestingDepthIsCapped) {
  const std::string at_cap =
      std::string(kMaxDepth, '[') + std::string(kMaxDepth, ']');
  EXPECT_NO_THROW((void)parse(at_cap));
  const std::string over =
      std::string(kMaxDepth + 1, '[') + std::string(kMaxDepth + 1, ']');
  EXPECT_EQ(reject_offset(over), static_cast<long>(kMaxDepth));
  // A million unclosed brackets fail at the cap instead of recursing on.
  EXPECT_EQ(reject_offset(std::string(1'000'000, '[')),
            static_cast<long>(kMaxDepth));
  // Objects count toward the same cap.
  std::string objects;
  for (std::size_t i = 0; i <= kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kMaxDepth + 1, '}');
  EXPECT_EQ(reject_offset(objects), static_cast<long>(5 * kMaxDepth));
}

}  // namespace
}  // namespace longtail::util::json
