#include "src/base/strings.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace cqac {
namespace {

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ',').size(), 3u);
  EXPECT_EQ(Split("", ',').size(), 1u);
  EXPECT_EQ(Split("a,,b", ',')[1], "");
}

TEST(StringsTest, ParseSize) {
  size_t n = 7;
  EXPECT_TRUE(ParseSize("0", &n));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(ParseSize("18446744073709551615", &n));
  EXPECT_EQ(n, SIZE_MAX);
  // No sign, no blanks, no trailing text, no overflow; `n` stays put.
  n = 7;
  for (const char* bad : {"-1", "+1", " 1", "1 ", "1x", "", "0x10",
                          "18446744073709551616"})
    EXPECT_FALSE(ParseSize(bad, &n)) << bad;
  EXPECT_EQ(n, 7u);
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

}  // namespace
}  // namespace cqac
