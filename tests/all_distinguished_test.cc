#include "src/rewriting/all_distinguished.h"

#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

TEST(AllDistinguishedTest, RequiresFullyDistinguishedViews) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X, Y)");
  ViewSet hidden(MustParseRules("v(X) :- r(X, Y)."));
  EXPECT_FALSE(RewriteAllDistinguished(ctx, q, hidden).ok());
}

TEST(AllDistinguishedTest, GeneralAcQuerySupported) {
  // Unlike RewriteLsiQuery, the all-distinguished algorithm accepts any
  // comparison class (Theorem 3.2 has no LSI restriction).
  EngineContext ctx;
  Query q = MustParseQuery("q(X, Y) :- r(X, Y), X < Y, X > 2");
  ViewSet views(MustParseRules("v(X, Y) :- r(X, Y)."));
  auto mcr = RewriteAllDistinguished(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_EQ(mcr.value().disjuncts.size(), 1u);
  auto exp = ExpandRewriting(mcr.value().disjuncts[0], views);
  ASSERT_TRUE(exp.ok());
  auto eq = IsEquivalent(ctx, exp.value(), q);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq.value());
}

TEST(AllDistinguishedTest, MultiViewJoin) {
  EngineContext ctx;
  Query q = MustParseQuery(
      "q(A, C) :- r(A, B), s(B, C), A < 5, C > 1");
  ViewSet views(MustParseRules(
      "vr(X, Y) :- r(X, Y).\n"
      "vs(X, Y) :- s(X, Y)."));
  auto mcr = RewriteAllDistinguished(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_EQ(mcr.value().disjuncts.size(), 1u);
  const Query& p = mcr.value().disjuncts[0];
  EXPECT_EQ(p.body().size(), 2u);
  EXPECT_EQ(p.comparisons().size(), 2u);
}

TEST(AllDistinguishedTest, FilteredViewsRestrictUsability) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X), X < 10");
  ViewSet views(MustParseRules(
      "vlow(X) :- r(X), X < 5.\n"
      "vbad(X) :- r(X), X > 50."));
  auto mcr = RewriteAllDistinguished(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  // vlow usable (already below 10); vbad's rewriting would be inconsistent
  // with X < 10... actually vbad(X), X < 10 expands to X > 50 ^ X < 10:
  // inconsistent, hence not a useful rewriting but still contained. The
  // verifier keeps it only if contained; we check vlow is present.
  bool has_vlow = false;
  for (const Query& d : mcr.value().disjuncts)
    for (const Atom& a : d.body()) has_vlow |= (a.predicate == "vlow");
  EXPECT_TRUE(has_vlow);
}

TEST(AllDistinguishedTest, AgreesWithRewriteLsiOnLsiInputs) {
  EngineContext ctx;
  Query q = MustParseQuery("q(A) :- r(A, B), B <= 7, A < 5");
  ViewSet views(MustParseRules(
      "v1(X, Y) :- r(X, Y).\n"
      "v2(X, Y) :- r(X, Y), Y <= 7."));
  auto a = RewriteAllDistinguished(ctx, q, views);
  auto b = RewriteLsiQuery(ctx, q, views);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  // The two MCRs must be equivalent as unions. Containment is checked at
  // the expansion level: view-schema containment would be too strict, since
  // view instances arising from databases already satisfy the views'
  // comparisons (e.g. v2's Y <= 7 here).
  auto expansions = [&views](const UnionQuery& u) {
    UnionQuery out;
    for (const Query& d : u.disjuncts)
      out.disjuncts.push_back(ExpandRewriting(d, views).value());
    return out;
  };
  UnionQuery a_exp = expansions(a.value());
  UnionQuery b_exp = expansions(b.value());
  for (const Query& d : a_exp.disjuncts) {
    auto c = IsContainedInUnion(ctx, d, b_exp);
    ASSERT_TRUE(c.ok()) << c.status();
    EXPECT_TRUE(c.value()) << d.ToString();
  }
  for (const Query& d : b_exp.disjuncts) {
    auto c = IsContainedInUnion(ctx, d, a_exp);
    ASSERT_TRUE(c.ok()) << c.status();
    EXPECT_TRUE(c.value()) << d.ToString();
  }
}

TEST(AllDistinguishedTest, ConstantsInQuerySubgoals) {
  EngineContext ctx;
  Query q = MustParseQuery("q(C) :- color(C, red)");
  ViewSet views(MustParseRules("v(X, Y) :- color(X, Y)."));
  auto mcr = RewriteAllDistinguished(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_EQ(mcr.value().disjuncts.size(), 1u);
  EXPECT_NE(mcr.value().disjuncts[0].ToString().find("red"),
            std::string::npos);
}

TEST(AllDistinguishedTest, EmptyWhenNoViewMatchesPredicate) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- t(X)");
  ViewSet views(MustParseRules("v(X) :- r(X)."));
  auto mcr = RewriteAllDistinguished(ctx, q, views);
  ASSERT_TRUE(mcr.ok());
  EXPECT_TRUE(mcr.value().empty());
}

}  // namespace
}  // namespace cqac
