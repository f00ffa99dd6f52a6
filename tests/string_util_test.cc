#include "src/util/string_util.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace triclust {
namespace {

TEST(SplitTest, BasicDelimiter) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a\t\tb", '\t'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), std::vector<std::string>{""});
}

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   \t\n ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, RoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(TrimTest, StripsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("hashtag", "hash"));
  EXPECT_FALSE(StartsWith("hash", "hashtag"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(ParseDoubleTest, AcceptsValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_TRUE(ParseDouble("0", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
  // The extremes the writers emit. strtod flags a denormal with ERANGE;
  // it is still a finite value.
  EXPECT_TRUE(ParseDouble("4.9406564584124654e-324", &v));
  EXPECT_EQ(v, std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(ParseDouble("2.2250738585072014e-308", &v));
  EXPECT_EQ(v, DBL_MIN);
  EXPECT_TRUE(ParseDouble("1.7976931348623157e+308", &v));
  EXPECT_EQ(v, DBL_MAX);
  EXPECT_TRUE(ParseDouble("-0", &v));
  EXPECT_TRUE(std::signbit(v));
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  // Non-finite values, overflow included, and `v` is left alone.
  v = 7.0;
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                           "1e999", "-1e999", " 1e309 "}) {
    EXPECT_FALSE(ParseDouble(text, &v)) << text;
  }
  EXPECT_EQ(v, 7.0);
}

TEST(ParseSizeTTest, AcceptsAndRejects) {
  size_t v = 0;
  EXPECT_TRUE(ParseSizeT("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseSizeT(" 7 ", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(ParseSizeT("", &v));
  EXPECT_FALSE(ParseSizeT("4.2", &v));
  EXPECT_FALSE(ParseSizeT("x", &v));
  // No sign and no wrap-around: strtoull would take both as SIZE_MAX.
  EXPECT_FALSE(ParseSizeT("-1", &v));
  EXPECT_FALSE(ParseSizeT("18446744073709551616", &v));
  EXPECT_EQ(v, 7u);
}

/// AppendDouble17's text for `value`; the "x" it starts from checks that
/// it appends.
std::string Double17(double value) {
  std::string out = "x";
  AppendDouble17(value, &out);
  return out.substr(1);
}

TEST(AppendDouble17Test, MatchesPrintf) {
  for (const double v :
       {0.0, -0.0, 0.1, -0.1, 1.0, 1.0 / 3.0, 1e21, 1e-5, 123456789012345678.0,
        std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
        -DBL_MAX, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(Double17(v), StrFormat("%.17g", v)) << StrFormat("%a", v);
  }
  // Random bit patterns cover every exponent, denormals included.
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(Double17(v), StrFormat("%.17g", v)) << StrFormat("%a", v);
  }
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "ok"), "5-ok");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace triclust
