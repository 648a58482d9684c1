// Union containment and minimization (the finite-union rewriting language
// of Sections 3-4).
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

UnionQuery U(std::initializer_list<const char*> texts) {
  UnionQuery u;
  for (const char* t : texts) u.disjuncts.push_back(MustParseQuery(t));
  return u;
}

TEST(UnionTest, SagivYannakakisFastPathOnCqs) {
  EngineContext ctx;
  UnionQuery u = U({"q(X) :- r(X, Y)", "q(X) :- s(X)"});
  auto in = IsContainedInUnion(ctx, MustParseQuery("q(X) :- r(X, X)"), u);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(in.value());
  auto out = IsContainedInUnion(ctx, MustParseQuery("q(X) :- t(X)"), u);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out.value());
}

TEST(UnionTest, SagivYannakakisDoesNotApplyWithComparisons) {
  // q contained in the union but in no single disjunct.
  EngineContext ctx;
  UnionQuery u = U({"q(X) :- r(X), X < 3", "q(X) :- r(X), X > 1"});
  auto in = IsContainedInUnion(ctx, MustParseQuery("q(X) :- r(X)"), u);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(in.value());
}

TEST(UnionTest, MinimizeDropsSubsumedDisjunct) {
  EngineContext ctx;
  UnionQuery u = U({"q(X) :- r(X), X < 2", "q(X) :- r(X), X < 5"});
  auto m = MinimizeUnion(ctx, u);
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m.value().disjuncts.size(), 1u);
  EXPECT_NE(m.value().disjuncts[0].ToString().find("5"), std::string::npos);
}

TEST(UnionTest, MinimizeKeepsJointlyNecessaryDisjuncts) {
  // Neither disjunct contains the other, and neither is covered by the
  // rest alone.
  EngineContext ctx;
  UnionQuery u = U({"q(X) :- r(X), X < 3", "q(X) :- r(X), X > 5"});
  auto m = MinimizeUnion(ctx, u);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().disjuncts.size(), 2u);
}

TEST(UnionTest, MinimizeHandlesUnionRedundancy) {
  // The third disjunct is covered only by the union of the first two.
  EngineContext ctx;
  UnionQuery u = U({"q(X) :- r(X), X < 3", "q(X) :- r(X), X > 1",
                    "q(X) :- r(X), 1 < X, X < 3"});
  auto m = MinimizeUnion(ctx, u);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().disjuncts.size(), 2u) << m.value().ToString();
}

TEST(UnionTest, MinimizePreservesSemanticsEmpirically) {
  EngineContext ctx;
  Rng rng(404);
  UnionQuery u = U({"q(X) :- r(X), X < 3", "q(X) :- r(X), X < 8",
                    "q(X) :- r(X), X > 6", "q(X) :- r(X), 2 < X, X < 7"});
  auto m = MinimizeUnion(ctx, u);
  ASSERT_TRUE(m.ok());
  EXPECT_LT(m.value().disjuncts.size(), u.disjuncts.size());
  gen::DatabaseSpec spec;
  spec.tuples_per_relation = 40;
  for (int iter = 0; iter < 10; ++iter) {
    Database db = gen::RandomDatabase(rng, {{"r", 1}}, spec);
    Relation a = EvaluateUnion(ctx, u, db).value();
    Relation b = EvaluateUnion(ctx, m.value(), db).value();
    ASSERT_EQ(a, b);
  }
}

TEST(UnionTest, EmptyAndSingletonUnions) {
  EngineContext ctx;
  UnionQuery empty;
  auto m = MinimizeUnion(ctx, empty);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m.value().empty());

  UnionQuery one = U({"q(X) :- r(X)"});
  auto m1 = MinimizeUnion(ctx, one);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1.value().disjuncts.size(), 1u);

  // Containment in the empty union holds only for the empty query.
  auto never = IsContainedInUnion(ctx, MustParseQuery("q(X) :- r(X)"), empty);
  ASSERT_TRUE(never.ok());
  EXPECT_FALSE(never.value());
  auto vacuous = IsContainedInUnion(
      ctx, MustParseQuery("q(X) :- r(X), X < 1, X > 2"), empty);
  ASSERT_TRUE(vacuous.ok());
  EXPECT_TRUE(vacuous.value());
}

}  // namespace
}  // namespace cqac
