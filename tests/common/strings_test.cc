#include "common/strings.h"

#include <gtest/gtest.h>

namespace autoglobe {
namespace {

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("hello %s %d", "world", 42), "hello world 42");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, AppendIntMatchesPrintfZeroPadding) {
  const long long values[] = {0, 7, 42, 99999, 100000, 123456789,
                              -3, -12345, 9223372036854775807LL,
                              -9223372036854775807LL - 1};
  for (long long value : values) {
    for (int width : {0, 1, 3, 5, 8, 25}) {
      std::string appended = "x-";
      AppendInt(&appended, value, width);
      EXPECT_EQ(appended, StrFormat("x-%0*lld", width, value))
          << value << " width " << width;
    }
  }
  std::string unpadded;
  AppendInt(&unpadded, 250, -4);
  EXPECT_EQ(unpadded, "250");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  abc  "), "abc");
  EXPECT_EQ(StripWhitespace("\t\nabc"), "abc");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
  EXPECT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Split("x,", ',').size(), 2u);
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  auto pieces = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, CaseConversions) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
  EXPECT_EQ(ToUpper("AbC-12"), "ABC-12");
  EXPECT_TRUE(EqualsIgnoreCase("ScaleOut", "scaleout"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("blade16", "blade"));
  EXPECT_FALSE(StartsWith("bla", "blade"));
  EXPECT_TRUE(EndsWith("server.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", ".xml"));
}

TEST(StringsTest, ParseDouble) {
  EXPECT_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_EQ(*ParseDouble(" -2e3 "), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  // strtod accepts these; ParseDouble must not.
  for (const char* non_finite : {"nan", "NaN", "-nan", "inf", "-inf",
                                 "Infinity", "1e999"}) {
    EXPECT_FALSE(ParseDouble(non_finite).ok()) << non_finite;
  }
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12ab").ok());
}

TEST(StringsTest, ParseBool) {
  EXPECT_TRUE(*ParseBool("true"));
  EXPECT_TRUE(*ParseBool("Yes"));
  EXPECT_TRUE(*ParseBool("1"));
  EXPECT_FALSE(*ParseBool("false"));
  EXPECT_FALSE(*ParseBool("off"));
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

}  // namespace
}  // namespace autoglobe
