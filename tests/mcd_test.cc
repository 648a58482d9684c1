// Direct unit tests for MCD construction (Step 1 of RewriteLSIQuery).
#include "src/rewriting/mcd.h"

#include <gtest/gtest.h>

#include "src/constraints/preprocess.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

std::vector<Mcd> Build(const Query& q, const ViewSet& raw_views,
                       ViewSet* prepped_out = nullptr) {
  EngineContext ctx;
  Query qp = Preprocess(q).value();
  ViewSet prepped;
  for (const Query& v : raw_views.views()) {
    auto vp = Preprocess(v);
    EXPECT_TRUE(vp.ok());
    EXPECT_TRUE(prepped.Add(std::move(vp).value()).ok());
  }
  std::vector<ExportAnalysis> analyses;
  for (const Query& v : prepped.views()) analyses.emplace_back(v);
  auto r = ConstructMcds(ctx, qp, prepped, analyses);
  EXPECT_TRUE(r.ok()) << r.status();
  if (prepped_out != nullptr) *prepped_out = prepped;
  return r.ValueOr({});
}

TEST(McdTest, CarDealerProducesTableThreeMcds) {
  // Table 3: one MCD covering {car, loc} via v1, one covering {color} via
  // v2.
  std::vector<Mcd> mcds =
      Build(workloads::CarDealerQuery(), workloads::CarDealerViews());
  ASSERT_EQ(mcds.size(), 2u);
  const Mcd* two_goals = nullptr;
  const Mcd* one_goal = nullptr;
  for (const Mcd& m : mcds) {
    if (m.covered.size() == 2) two_goals = &m;
    if (m.covered.size() == 1) one_goal = &m;
  }
  ASSERT_NE(two_goals, nullptr);
  ASSERT_NE(one_goal, nullptr);
  EXPECT_EQ(two_goals->view_index, 0);  // v1 covers car+loc (shared A)
  EXPECT_EQ(one_goal->view_index, 1);   // v2 covers color
}

TEST(McdTest, SharedHiddenVariablePullsSubgoals) {
  // A is hidden in v and shared across both query subgoals: the MCD must
  // cover both atoms or not exist.
  Query q = MustParseQuery("q(C, L) :- car(C, A), loc(A, L)");
  ViewSet views(MustParseRules("v(X, Y) :- car(X, D), loc(D, Y)."));
  std::vector<Mcd> mcds = Build(q, views);
  ASSERT_EQ(mcds.size(), 1u);
  EXPECT_EQ(mcds[0].covered.size(), 2u);
}

TEST(McdTest, ExportRequirementRecordedInHeadHomomorphism) {
  ViewSet prepped;
  std::vector<Mcd> mcds = Build(workloads::Example11Query(),
                                workloads::Example11Views(), &prepped);
  // Only v1 can serve (the query var is distinguished and needs export);
  // its head homomorphism must merge Y and Z.
  ASSERT_EQ(mcds.size(), 1u);
  const Query& v1 = prepped[0];
  EXPECT_EQ(mcds[0].view_index, 0);
  EXPECT_TRUE(mcds[0].hh.Same(v1.FindVariable("Y"), v1.FindVariable("Z")));
}

TEST(McdTest, Sec44FullExampleHasTwoExportChoices) {
  std::vector<Mcd> mcds =
      Build(workloads::Sec44FullQuery(), workloads::Sec44FullViews());
  // p(A, B) has two MCDs through v1 (the two export homomorphisms of X);
  // r(C) has one through v2.
  int p_mcds = 0, r_mcds = 0;
  for (const Mcd& m : mcds) {
    if (m.view_index == 0) ++p_mcds;
    if (m.view_index == 1) ++r_mcds;
  }
  EXPECT_EQ(p_mcds, 2) << mcds.size();
  EXPECT_EQ(r_mcds, 1);
}

TEST(McdTest, ConstantBindingRequiresUsablePosition) {
  // Query constant meets a hidden, non-exportable view variable: no MCD.
  Query q = MustParseQuery("q(X) :- color(X, red)");
  ViewSet hidden(MustParseRules("v(W) :- color(W, Z)."));
  EXPECT_TRUE(Build(q, hidden).empty());
  // Distinguished position: MCD exists and records the binding.
  ViewSet exposed(MustParseRules("v(W, Z) :- color(W, Z)."));
  std::vector<Mcd> mcds = Build(q, exposed);
  ASSERT_EQ(mcds.size(), 1u);
  EXPECT_EQ(mcds[0].const_bindings.size(), 1u);
}

TEST(McdTest, DistinguishedQueryVarNeedsUsableImage) {
  // X distinguished in q, hidden & unexportable in v: no MCD.
  Query q = MustParseQuery("q(X) :- p(X)");
  ViewSet views(MustParseRules("v(Y) :- p(X), s(Y)."));
  EXPECT_TRUE(Build(q, views).empty());
  // Exportable (sandwiched): MCD appears.
  ViewSet sandwich(MustParseRules(
      "v(Y, Z) :- p(X), s(Y, Z), Y <= X, X <= Z."));
  EXPECT_EQ(Build(q, sandwich).size(), 1u);
}

}  // namespace
}  // namespace cqac
