#include "src/ir/json.h"

#include <gtest/gtest.h>

#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonTest, QueryStructure) {
  UnionQuery u;
  u.disjuncts.push_back(
      MustParseQuery("q(X) :- r(X, Y), color(X, red), X < 7/2"));
  std::string j = UnionQueryToJson(u);
  EXPECT_NE(j.find("\"head\":{\"predicate\":\"q\""), std::string::npos) << j;
  EXPECT_NE(j.find("{\"kind\":\"var\",\"name\":\"X\"}"), std::string::npos);
  EXPECT_NE(j.find("{\"kind\":\"symbol\",\"value\":\"red\"}"),
            std::string::npos);
  EXPECT_NE(j.find("{\"kind\":\"number\",\"value\":\"7/2\"}"),
            std::string::npos);
  EXPECT_NE(j.find("\"op\":\"<\""), std::string::npos);
}

TEST(JsonTest, BalancedBracesOnWorkloads) {
  auto balanced = [](const std::string& s) {
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < s.size(); ++i) {
      char c = s[i];
      if (in_string) {
        if (c == '\\')
          ++i;
        else if (c == '"')
          in_string = false;
        continue;
      }
      if (c == '"') in_string = true;
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') --depth;
      if (depth < 0) return false;
    }
    return depth == 0 && !in_string;
  };
  UnionQuery one;
  one.disjuncts.push_back(workloads::Example51Q2());
  EXPECT_TRUE(balanced(UnionQueryToJson(one)));
  UnionQuery u;
  u.disjuncts.push_back(workloads::Example12Pk(2));
  u.disjuncts.push_back(workloads::Example12Pk(3));
  EXPECT_TRUE(balanced(UnionQueryToJson(u)));
}

TEST(JsonTest, EmptyCollections) {
  UnionQuery empty;
  EXPECT_EQ(UnionQueryToJson(empty), "{\"disjuncts\":[]}");
}

}  // namespace
}  // namespace cqac
