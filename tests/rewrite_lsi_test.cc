#include "src/rewriting/rewrite_lsi.h"

#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

// True iff some disjunct of `u` is equivalent (as a view-schema query) to
// the expected rewriting text.
bool ContainsEquivalentDisjunct(const UnionQuery& u,
                                const std::string& expected) {
  EngineContext ctx;
  Query e = MustParseQuery(expected);
  for (const Query& d : u.disjuncts) {
    auto r = IsEquivalent(ctx, d, e);
    if (r.ok() && r.value()) return true;
  }
  return false;
}

TEST(RewriteLsiTest, Example11FindsExportRewriting) {
  // The paper's P(A) :- v1(A, A), A < 4 must be produced (up to
  // equivalence), and nothing via v2.
  EngineContext ctx;
  auto mcr = RewriteLsiQuery(ctx, workloads::Example11Query(),
                             workloads::Example11Views());
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_FALSE(mcr.value().disjuncts.empty());
  EXPECT_TRUE(ContainsEquivalentDisjunct(mcr.value(),
                                         "p(A) :- v1(A, A), A < 4"))
      << mcr.value().ToString();
  for (const Query& d : mcr.value().disjuncts)
    for (const Atom& a : d.body()) EXPECT_NE(a.predicate, "v2");
}

TEST(RewriteLsiTest, CarDealerMatchesMiniCon) {
  // Section 4.1: q(C, L) :- v1(C, L), v2(C, red).
  EngineContext ctx;
  auto mcr = RewriteLsiQuery(ctx, workloads::CarDealerQuery(),
                             workloads::CarDealerViews());
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_EQ(mcr.value().disjuncts.size(), 1u) << mcr.value().ToString();
  EXPECT_TRUE(ContainsEquivalentDisjunct(
      mcr.value(), "q(C, L) :- v1(C, L), v2(C, red)"))
      << mcr.value().ToString();
}

TEST(RewriteLsiTest, Sec44SatisfactionCases) {
  // Cases (1)-(3) usable; v4 unusable. The boolean variant is used because
  // with a distinguished head variable only v2 could return it (the paper's
  // example discusses the satisfaction step in isolation).
  EngineContext ctx;
  auto mcr = RewriteLsiQuery(ctx, workloads::Sec44CaseBooleanQuery(),
                             workloads::Sec44CaseViews());
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  const UnionQuery& u = mcr.value();
  bool used_v1 = false, used_v2 = false, used_v3 = false, used_v4 = false;
  for (const Query& d : u.disjuncts) {
    for (const Atom& a : d.body()) {
      used_v1 |= (a.predicate == "v1");
      used_v2 |= (a.predicate == "v2");
      used_v3 |= (a.predicate == "v3");
      used_v4 |= (a.predicate == "v4");
    }
  }
  EXPECT_TRUE(used_v1) << u.ToString();   // case (1): view implies A < 3...
  EXPECT_TRUE(used_v2) << u.ToString();   // case (2): add X1 < 3
  EXPECT_TRUE(used_v3) << u.ToString();   // case (3): add X3 < 3
  EXPECT_FALSE(used_v4) << u.ToString();  // no way to bound X1 above
}

TEST(RewriteLsiTest, Sec44CaseQueryHiddenHeadNeedsExport) {
  // Note: in the Section 4.4 case query, A is distinguished, so v1/v3
  // (which hide X1) can participate only if A's value is exported; v1/v3
  // hide X1 entirely, so the *distinguished* A cannot map there. The MCR
  // disjuncts must all return A from an exposed position.
  EngineContext ctx;
  auto mcr = RewriteLsiQuery(ctx, workloads::Sec44CaseQuery(),
                             workloads::Sec44CaseViews());
  ASSERT_TRUE(mcr.ok());
  for (const Query& d : mcr.value().disjuncts) {
    EXPECT_TRUE(d.Validate().ok()) << d.ToString();
  }
}

TEST(RewriteLsiTest, Sec44FullAlgorithmExample) {
  // The paper derives P1: q(A) :- v1(A, X2, A), v2(C), A > 5, A > 3
  //                   P2: q(A) :- v1(X1, A, A), v2(C), A > 5, A > 3.
  EngineContext ctx;
  auto mcr = RewriteLsiQuery(ctx, workloads::Sec44FullQuery(),
                             workloads::Sec44FullViews());
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  EXPECT_TRUE(ContainsEquivalentDisjunct(
      mcr.value(), "q(A) :- v1(A, F, A), v2(C), A > 5, A > 3"))
      << mcr.value().ToString();
  EXPECT_TRUE(ContainsEquivalentDisjunct(
      mcr.value(), "q(A) :- v1(F, A, A), v2(C), A > 5, A > 3"))
      << mcr.value().ToString();
}

TEST(RewriteLsiTest, EveryEmittedRewritingIsContained) {
  // Redundant with the internal verifier, but checks end-to-end through the
  // public expansion API.
  for (auto [q, views] :
       {std::make_pair(workloads::Example11Query(),
                       workloads::Example11Views()),
        std::make_pair(workloads::Sec44CaseQuery(),
                       workloads::Sec44CaseViews()),
        std::make_pair(workloads::Sec44FullQuery(),
                       workloads::Sec44FullViews())}) {
    EngineContext ctx;
    auto mcr = RewriteLsiQuery(ctx, q, views);
    ASSERT_TRUE(mcr.ok()) << mcr.status();
    for (const Query& d : mcr.value().disjuncts) {
      auto exp = ExpandRewriting(d, views);
      ASSERT_TRUE(exp.ok()) << exp.status();
      auto contained = IsContained(ctx, exp.value(), q);
      ASSERT_TRUE(contained.ok()) << contained.status();
      EXPECT_TRUE(contained.value()) << d.ToString();
    }
  }
}

TEST(RewriteLsiTest, RsiQueriesMirror) {
  // RSI query through the same machinery (boolean so hidden-variable views
  // participate).
  EngineContext ctx;
  Query q = MustParseQuery("q() :- p(A), A > 7");
  ViewSet views(MustParseRules(
      "v1(X2) :- p(X1), s(X2), X1 > 9.\n"
      "v2(X1) :- p(X1).\n"
      "v3(X2, X3) :- p(X1), r(X2, X3, X4), X3 <= X1."));
  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  bool used_v1 = false, used_v2 = false, used_v3 = false;
  for (const Query& d : mcr.value().disjuncts)
    for (const Atom& a : d.body()) {
      used_v1 |= (a.predicate == "v1");
      used_v2 |= (a.predicate == "v2");
      used_v3 |= (a.predicate == "v3");
    }
  EXPECT_TRUE(used_v1);
  EXPECT_TRUE(used_v2);
  EXPECT_TRUE(used_v3);
}

TEST(RewriteLsiTest, MixedSiRejected) {
  EngineContext ctx;
  Query q = MustParseQuery("q(A) :- p(A, B), A < 3, B > 5");
  ViewSet views(MustParseRules("v(X, Y) :- p(X, Y)."));
  auto mcr = RewriteLsiQuery(ctx, q, views);
  EXPECT_FALSE(mcr.ok());
  EXPECT_EQ(mcr.status().code(), StatusCode::kUnsupported);
}

TEST(RewriteLsiTest, InconsistentQueryGivesEmptyMcr) {
  EngineContext ctx;
  Query q = MustParseQuery("q(A) :- p(A), A < 3, A < 1, 5 <= A");
  ViewSet views(MustParseRules("v(X) :- p(X)."));
  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  EXPECT_TRUE(mcr.value().empty());
}

TEST(RewriteLsiTest, NoViewsNoRewritings) {
  EngineContext ctx;
  auto mcr = RewriteLsiQuery(ctx, workloads::Example11Query(), ViewSet());
  ASSERT_TRUE(mcr.ok());
  EXPECT_TRUE(mcr.value().empty());
}

TEST(RewriteLsiTest, PureCqBehavesLikeMiniCon) {
  // Without comparisons, shared variables must be covered inside one MCD.
  EngineContext ctx;
  Query q = MustParseQuery("q(C) :- car(C, A), loc(A, L)");
  ViewSet only_car(MustParseRules("v(X) :- car(X, D)."));
  auto mcr = RewriteLsiQuery(ctx, q, only_car);
  ASSERT_TRUE(mcr.ok());
  // A is shared and hidden in v: no rewriting exists.
  EXPECT_TRUE(mcr.value().empty()) << mcr.value().ToString();

  ViewSet pair(MustParseRules("v(X) :- car(X, D), loc(D, L)."));
  auto mcr2 = RewriteLsiQuery(ctx, q, pair);
  ASSERT_TRUE(mcr2.ok());
  ASSERT_EQ(mcr2.value().disjuncts.size(), 1u);
}

TEST(RewriteLsiTest, StatsPopulated) {
  EngineContext ctx;
  RewriteStats stats;
  auto mcr = RewriteLsiQuery(ctx, workloads::Sec44FullQuery(),
                             workloads::Sec44FullViews(), RewriteOptions{},
                             &stats);
  ASSERT_TRUE(mcr.ok());
  EXPECT_GT(stats.mcds, 0u);
  EXPECT_GT(stats.combinations, 0u);
  EXPECT_GE(stats.candidates, mcr.value().disjuncts.size());
}

}  // namespace
}  // namespace cqac
