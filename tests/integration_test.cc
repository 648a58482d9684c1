// End-to-end integration tests mirroring the example programs, so the
// behaviors showcased in examples/ are locked in by the suite.
#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/rewriting/er_search.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

TEST(IntegrationTest, InformationIntegrationScenario) {
  EngineContext ctx;
  Query q = MustParseQuery(
      "q(C) :- car(C, D), loc(D, irvine), price(C, P), P < 30");
  ViewSet sources(MustParseRules(
      "dealers_web(C, L) :- car(C, D), loc(D, L).\n"
      "budget_cars(C) :- price(C, P), P < 25.\n"
      "pricing_api(C, P) :- price(C, P).\n"
      "luxury_cars(C) :- price(C, P), P > 80."));

  auto mcr = RewriteLsiQuery(ctx, q, sources);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_EQ(mcr.value().disjuncts.size(), 2u) << mcr.value().ToString();
  bool used_budget = false, used_pricing = false, used_luxury = false;
  for (const Query& d : mcr.value().disjuncts)
    for (const Atom& a : d.body()) {
      used_budget |= a.predicate == "budget_cars";
      used_pricing |= a.predicate == "pricing_api";
      used_luxury |= a.predicate == "luxury_cars";
    }
  EXPECT_TRUE(used_budget);
  EXPECT_TRUE(used_pricing);
  EXPECT_FALSE(used_luxury);

  Database world =
      Database::FromFacts(
          "car(camry, d1). car(accord, d1). car(model3, d2). "
          "car(phantom, d3). "
          "loc(d1, irvine). loc(d2, irvine). loc(d3, losangeles). "
          "price(camry, 28). price(accord, 24). price(model3, 45). "
          "price(phantom, 400).")
          .value();
  Database vdb = MaterializeViews(ctx, sources, world).value();
  Relation certain = EvaluateUnion(ctx, mcr.value(), vdb).value();
  Relation truth = EvaluateQuery(ctx, q, world).value();
  // Here the sources happen to be lossless for this query.
  EXPECT_EQ(certain, truth);
  EXPECT_EQ(certain.size(), 2u);
  EXPECT_TRUE(certain.count({Value(std::string("camry"))}));
  EXPECT_TRUE(certain.count({Value(std::string("accord"))}));
}

TEST(IntegrationTest, ViewSelectionScenario) {
  EngineContext ctx;
  ViewSet mviews(MustParseRules(
      "small_sales(I, S, A) :- sales(I, S, A), A < 100.\n"
      "large_sales(I, S, A) :- sales(I, S, A), 100 <= A.\n"
      "west_stores(S) :- stores(S, west).\n"
      "sales_by_region(I, R, A) :- sales(I, S, A), stores(S, R)."));

  // Q1: single-view equivalent plan.
  auto er1 = FindEquivalentRewriting(
      ctx, MustParseQuery("q(I, A) :- sales(I, S, A), A < 50"), mviews);
  ASSERT_TRUE(er1.ok()) << er1.status();
  ASSERT_TRUE(er1.value().single.has_value());

  // Q2: equivalence requires the union of the partitions.
  auto er2 = FindEquivalentRewriting(
      ctx, MustParseQuery("q(I, A) :- sales(I, S, A), A < 100000"), mviews);
  ASSERT_TRUE(er2.ok()) << er2.status();
  EXPECT_TRUE(er2.value().found());
  EXPECT_FALSE(er2.value().single.has_value());
  ASSERT_TRUE(er2.value().union_er.has_value());

  // Q4: store directory — only a contained plan.
  Query q4 = MustParseQuery("q(S, R) :- stores(S, R)");
  auto er4 = FindEquivalentRewriting(ctx, q4, mviews);
  ASSERT_TRUE(er4.ok()) << er4.status();
  EXPECT_FALSE(er4.value().found());
  auto mcr4 = RewriteLsiQuery(ctx, q4, mviews);
  ASSERT_TRUE(mcr4.ok());
  ASSERT_FALSE(mcr4.value().empty());
  // The contained plan pins the region to west.
  EXPECT_NE(mcr4.value().ToString().find("west"), std::string::npos)
      << mcr4.value().ToString();
}

TEST(IntegrationTest, LossyViewsStayContained) {
  // Certain answers through lossy sources are a strict subset.
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X)");
  ViewSet views(MustParseRules("v(X) :- r(X), X < 5."));
  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_TRUE(mcr.ok());
  ASSERT_EQ(mcr.value().disjuncts.size(), 1u);
  Database db = Database::FromFacts("r(1). r(9).").value();
  Database vdb = MaterializeViews(ctx, views, db).value();
  Relation certain = EvaluateUnion(ctx, mcr.value(), vdb).value();
  Relation truth = EvaluateQuery(ctx, q, db).value();
  EXPECT_EQ(certain.size(), 1u);
  EXPECT_EQ(truth.size(), 2u);
  for (const Tuple& t : certain) EXPECT_TRUE(truth.count(t));
}

}  // namespace
}  // namespace cqac
