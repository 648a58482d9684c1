// Table 1 of the paper, as executable claims: which rewriting language
// suffices for which query/view class, and which engine serves each cell.
#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/rewriting/all_distinguished.h"
#include "src/rewriting/rewrite_lsi.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {
namespace {

// Row: LSI (or RSI) query, views with general ACs — MCR exists as a finite
// union of CQACs (Section 4, Theorems 4.1/4.2).
TEST(Table1Test, LsiQueryGeneralViewsFiniteUnionMcr) {
  EngineContext ctx;
  Query q = MustParseQuery("q(A) :- p(A, B), A < 9");
  ViewSet views(MustParseRules(
      "v(X, Y) :- p(X, Y), X <= Y.\n"  // general AC in the view
      "w(X) :- p(X, Y), Y < 2."));
  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  EXPECT_FALSE(mcr.value().empty());
  for (const Query& d : mcr.value().disjuncts) {
    Query exp = ExpandRewriting(d, views).value();
    EXPECT_TRUE(IsContained(ctx, exp, q).value()) << d.ToString();
  }
}

// Row: CQAC-SI query, SI views, hidden variables — no finite-union MCR
// (Proposition 5.1, witnessed by the pairwise-incomparable P_k family) but
// a Datalog MCR exists (Section 5.4).
TEST(Table1Test, CqacSiQueryNeedsDatalog) {
  EngineContext ctx;
  Query q = workloads::Example12Query();
  ViewSet views = workloads::Example12Views();
  // The P_k expansions form an infinite antichain: no finite union of
  // CQAC rewritings dominates.
  Query e2 = ExpandRewriting(workloads::Example12Pk(2), views).value();
  Query e3 = ExpandRewriting(workloads::Example12Pk(3), views).value();
  EXPECT_FALSE(IsContained(ctx, e2, e3).value());
  EXPECT_FALSE(IsContained(ctx, e3, e2).value());
  // The Datalog MCR exists and the LSI engine correctly refuses the class.
  EXPECT_TRUE(RewriteSiQueryDatalog(ctx, q, views).ok());
  EXPECT_EQ(RewriteLsiQuery(ctx, q, views).status().code(),
            StatusCode::kUnsupported);
}

// Row: all view variables distinguished — finite-union MCR for ANY
// comparison class (Theorem 3.2), even general ACs.
TEST(Table1Test, AllDistinguishedAnyClassFiniteUnion) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X, Y) :- p(X, Y), X < Y, X > 0");
  ViewSet views(MustParseRules("v(X, Y) :- p(X, Y)."));
  ASSERT_EQ(q.Classify(), AcClass::kGeneral);
  auto mcr = RewriteAllDistinguished(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_EQ(mcr.value().disjuncts.size(), 1u);
  Query exp = ExpandRewriting(mcr.value().disjuncts[0], views).value();
  EXPECT_TRUE(IsEquivalent(ctx, exp, q).value());
}

// Containment-complexity separation (the columns of Table 1): the LSI fast
// path uses one mapping; the general test must reason disjunctively.
TEST(Table1Test, ContainmentRegimes) {
  // LSI: single-mapping reasoning decides.
  EngineContext ctx;
  Query lsi_small = MustParseQuery("q() :- e(X, Y), X < 4");
  Query lsi_big = MustParseQuery("q() :- e(A, B), e(B, C), A < 3, B < 2");
  EXPECT_TRUE(IsContained(ctx, lsi_big, lsi_small).value());

  // SI: Example 5.1 requires two mappings jointly — disable the fast path
  // (it does not apply anyway) and confirm the general engine handles it.
  ContainmentOptions general;
  general.use_single_mapping_fast_path = false;
  EXPECT_TRUE(IsContained(ctx, workloads::Example51Q2(),
                          workloads::Example51Q1(), general)
                  .value());
}

}  // namespace
}  // namespace cqac
