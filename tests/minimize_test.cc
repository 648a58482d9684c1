#include "src/containment/minimize.h"

#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(MinimizeTest, ClassicFolding) {
  // e(X, Y), e(X, Z) folds to e(X, Y) when Z is unused elsewhere.
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- e(X, Y), e(X, Z)");
  auto m = MinimizeQuery(ctx, q);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m.value().body().size(), 1u);
  auto eq = IsEquivalent(ctx, m.value(), q);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq.value());
}

TEST(MinimizeTest, ComparisonsAndFolding) {
  // The unconstrained atom folds onto the constrained one (Y maps to Z).
  EngineContext ctx;
  Query with = MustParseQuery("q(X) :- e(X, Y), e(X, Z), Z < 3");
  auto m = MinimizeQuery(ctx, with);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m.value().body().size(), 1u) << m.value().ToString();
  EXPECT_EQ(m.value().comparisons().size(), 1u);

  // Both atoms constrained identically: they still fold into one (needs
  // the endomorphism step; plain atom-dropping would strand a comparison).
  Query both = MustParseQuery("q(X) :- e(X, Y), e(X, Z), Z < 3, Y < 3");
  auto m2 = MinimizeQuery(ctx, both);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2.value().body().size(), 1u) << m2.value().ToString();

  // Genuinely load-bearing: different ranges on the two edges cannot fold
  // (folding would strengthen the query).
  Query apart = MustParseQuery(
      "q(X) :- e(X, Y), e(X, Z), Z < 3, 5 <= Y");
  auto m3 = MinimizeQuery(ctx, apart);
  ASSERT_TRUE(m3.ok());
  EXPECT_EQ(m3.value().body().size(), 2u) << m3.value().ToString();
}

TEST(MinimizeTest, CoreOfTriangleWithApex) {
  // A triangle pattern plus a generic edge: the generic edge folds into
  // the triangle.
  EngineContext ctx;
  Query q = MustParseQuery(
      "q() :- e(A, B), e(B, C), e(C, A), e(X, Y)");
  auto m = MinimizeQuery(ctx, q);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().body().size(), 3u);
}

TEST(MinimizeTest, AlreadyMinimalUnchanged) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X, Z) :- e(X, Y), e(Y, Z)");
  auto m = MinimizeQuery(ctx, q);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().body().size(), 2u);
}

TEST(MinimizeTest, RedundantComparisonDropped) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- e(X, Y), X < 3, X < 7");
  auto m = MinimizeQuery(ctx, q);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().comparisons().size(), 1u);
}

TEST(MinimizeTest, InconsistentQueryReported) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- e(X, Y), X < 1, X > 5");
  auto m = MinimizeQuery(ctx, q);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInconsistent);
}

TEST(MinimizeTest, PreservesEquivalenceOnPaperPattern) {
  // The Section 2 pattern: equality collapse happens first, then folding.
  EngineContext ctx;
  Query q = MustParseQuery(
      "q(X) :- e(X, Y), e(Y, Z), X <= Y, Y <= X, e(X, W)");
  auto m = MinimizeQuery(ctx, q);
  ASSERT_TRUE(m.ok()) << m.status();
  auto eq = IsEquivalent(ctx, m.value(), q);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq.value()) << m.value().ToString();
  EXPECT_LE(m.value().body().size(), 2u);
}

}  // namespace
}  // namespace cqac
