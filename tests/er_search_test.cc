#include "src/rewriting/er_search.h"

#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(ErSearchTest, Example11VariantHasEr) {
  // The paper notes P(A) :- v1(A, A), A < 4 is an ER of
  // q(A) :- r(A), s(A, A), A < 4.
  EngineContext ctx;
  Query q = MustParseQuery("q(A) :- r(A), s(A, A), A < 4");
  ViewSet views = workloads::Example11Views();
  auto er = FindEquivalentRewriting(ctx, q, views);
  ASSERT_TRUE(er.ok()) << er.status();
  ASSERT_TRUE(er.value().found());
  ASSERT_TRUE(er.value().single.has_value());
  // Verify the claimed ER really is equivalent after expansion.
  auto exp = ExpandRewriting(*er.value().single, views);
  ASSERT_TRUE(exp.ok());
  auto equiv = IsEquivalent(ctx, exp.value(), q);
  ASSERT_TRUE(equiv.ok());
  EXPECT_TRUE(equiv.value()) << er.value().single->ToString();
}

TEST(ErSearchTest, Example11OriginalHasNoEr) {
  // q1(A) :- r(A), A < 4 has a CR but no ER: the views cannot avoid the
  // extra s(A, A) condition.
  EngineContext ctx;
  auto er = FindEquivalentRewriting(ctx, workloads::Example11Query(),
                                    workloads::Example11Views());
  ASSERT_TRUE(er.ok()) << er.status();
  EXPECT_FALSE(er.value().found());
}

TEST(ErSearchTest, IdentityView) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X), X < 3");
  ViewSet views(MustParseRules("v(X) :- r(X)."));
  auto er = FindEquivalentRewriting(ctx, q, views);
  ASSERT_TRUE(er.ok()) << er.status();
  ASSERT_TRUE(er.value().found());
  ASSERT_TRUE(er.value().single.has_value());
}

TEST(ErSearchTest, UnionNeededWhenViewsPartition) {
  // Views split r by a boundary; only their union recovers q.
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X), X < 10");
  ViewSet views(MustParseRules(
      "vlow(X) :- r(X), X < 5.\n"
      "vhigh(X) :- r(X), 5 <= X, X < 10."));
  auto er = FindEquivalentRewriting(ctx, q, views);
  ASSERT_TRUE(er.ok()) << er.status();
  ASSERT_TRUE(er.value().found());
  EXPECT_FALSE(er.value().single.has_value());
  ASSERT_TRUE(er.value().union_er.has_value());
  EXPECT_GE(er.value().union_er->disjuncts.size(), 2u);
}

TEST(ErSearchTest, NoErWhenViewsLoseInformation) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X)");
  ViewSet views(MustParseRules("v(X) :- r(X), X < 5."));
  auto er = FindEquivalentRewriting(ctx, q, views);
  ASSERT_TRUE(er.ok()) << er.status();
  EXPECT_FALSE(er.value().found());
}

TEST(ErSearchTest, InconsistentQueryTriviallyRewritable) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X), X < 1, X > 5");
  ViewSet views(MustParseRules("v(X) :- r(X)."));
  auto er = FindEquivalentRewriting(ctx, q, views);
  ASSERT_TRUE(er.ok()) << er.status();
  EXPECT_TRUE(er.value().found());
}

TEST(ErSearchTest, GeneralQueryFallsBackToBucket) {
  // Mixed-SI query: RewriteLSIQuery does not apply; the bucket path must
  // still find the identity ER.
  EngineContext ctx;
  Query q = MustParseQuery("q(X, Y) :- r(X, Y), X < 3, Y > 5");
  ViewSet views(MustParseRules("v(X, Y) :- r(X, Y)."));
  auto er = FindEquivalentRewriting(ctx, q, views);
  ASSERT_TRUE(er.ok()) << er.status();
  ASSERT_TRUE(er.value().found());
}

}  // namespace
}  // namespace cqac
