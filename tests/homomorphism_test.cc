#include "src/containment/homomorphism.h"

#include <gtest/gtest.h>

#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(HomomorphismTest, ChandraMerlinBasic) {
  // q2's body is a specialization of q1's: q2 contained in q1 (as CQs).
  EngineContext ctx;
  Query q1 = MustParseQuery("q(X, Y) :- e(X, Y)");
  Query q2 = MustParseQuery("q(X, Y) :- e(X, Y), e(Y, X)");
  EXPECT_TRUE(HomomorphismExists(ctx, q1, q2).value());
  EXPECT_FALSE(HomomorphismExists(ctx, q2, q1).value());
}

TEST(HomomorphismTest, CountMappingsOnPath) {
  // 2-path into 4-path: three mappings (Example 5.1).
  EngineContext ctx;
  Query q1 = MustParseQuery("q() :- e(X, Y), e(Y, Z)");
  Query q2 = MustParseQuery("q() :- e(A, B), e(B, C), e(C, D), e(D, E)");
  EXPECT_EQ(FindHomomorphisms(ctx, q1, q2).value().size(), 3u);
}

TEST(HomomorphismTest, HeadsMustAgree) {
  EngineContext ctx;
  Query q1 = MustParseQuery("q(X) :- e(X, Y)");
  Query q2 = MustParseQuery("q(B) :- e(A, B)");
  // Head position must map X -> B, but then e(X,Y) has no image with B
  // first.
  EXPECT_FALSE(HomomorphismExists(ctx, q1, q2).value());
}

TEST(HomomorphismTest, ConstantsMapOnlyToThemselves) {
  EngineContext ctx;
  Query q1 = MustParseQuery("q() :- color(X, red)");
  Query q2a = MustParseQuery("q() :- color(C, red)");
  Query q2b = MustParseQuery("q() :- color(C, blue)");
  Query q2c = MustParseQuery("q() :- color(C, D)");
  EXPECT_TRUE(HomomorphismExists(ctx, q1, q2a).value());
  EXPECT_FALSE(HomomorphismExists(ctx, q1, q2b).value());
  // A constant cannot map to a variable.
  EXPECT_FALSE(HomomorphismExists(ctx, q1, q2c).value());
  // But a variable can map to a constant.
  EXPECT_TRUE(HomomorphismExists(ctx, q2c, q1).value());
}

TEST(HomomorphismTest, RepeatedVariablesConstrain) {
  EngineContext ctx;
  Query loop = MustParseQuery("q() :- e(X, X)");
  Query edge = MustParseQuery("q() :- e(A, B)");
  EXPECT_FALSE(HomomorphismExists(ctx, loop, edge).value());
  EXPECT_TRUE(HomomorphismExists(ctx, edge, loop).value());
}

TEST(HomomorphismTest, NumericConstantsUnify) {
  EngineContext ctx;
  Query q1 = MustParseQuery("q() :- r(X, 3.5)");
  Query q2 = MustParseQuery("q() :- r(0, 7/2)");
  EXPECT_TRUE(HomomorphismExists(ctx, q1, q2).value());  // 3.5 == 7/2
}

TEST(HomomorphismTest, EnumerationAbortsOnFalseCallback) {
  EngineContext ctx;
  Query q1 = MustParseQuery("q() :- e(X, Y)");
  Query q2 = MustParseQuery("q() :- e(A, B), e(B, C), e(C, D)");
  int seen = 0;
  EnumerationOutcome outcome =
      ForEachHomomorphism(ctx, q1, q2, [&](const VarMap&) {
        ++seen;
        return seen < 2;
      });
  EXPECT_EQ(outcome, EnumerationOutcome::kAborted);
  EXPECT_EQ(seen, 2);
}

TEST(HomomorphismTest, MappingContentIsCorrect) {
  EngineContext ctx;
  Query q1 = MustParseQuery("q(X) :- e(X, Y)");
  Query q2 = MustParseQuery("q(A) :- e(A, B), e(A, C)");
  std::vector<VarMap> maps = FindHomomorphisms(ctx, q1, q2).value();
  ASSERT_EQ(maps.size(), 2u);
  for (const VarMap& m : maps) {
    EXPECT_EQ(m.Get(q1.FindVariable("X")),
              Term::Var(q2.FindVariable("A")));
    const Term& y = m.Get(q1.FindVariable("Y"));
    EXPECT_TRUE(y == Term::Var(q2.FindVariable("B")) ||
                y == Term::Var(q2.FindVariable("C")));
  }
}

}  // namespace
}  // namespace cqac
