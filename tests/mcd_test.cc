// Direct unit tests for MCD construction (Step 1 of RewriteLSIQuery).
#include "src/rewriting/mcd.h"

#include <chrono>

#include <gtest/gtest.h>

#include "src/base/strings.h"
#include "src/base/task_pool.h"
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

// A view whose hidden X1..Xk each lie between two distinguished lower and
// two upper bounds, so each Xi has 2 x 2 = 4 export homomorphisms, and a
// query whose head needs all k exported: one MCD skeleton whose export
// product holds 4^k incomparable combinations.
struct ExportFixture {
  ViewSet views;
  Query q;
  std::vector<ExportAnalysis> analyses;
};

ExportFixture BoundedExports(int k) {
  std::string bounds, acs, xs, zs;
  for (int i = 1; i <= k; ++i) {
    const char* sep = i > 1 ? ", " : "";
    bounds += StrCat(sep, "A", i, ", B", i, ", C", i, ", D", i);
    acs += StrCat(", A", i, " <= X", i, ", B", i, " <= X", i, ", X", i,
                  " <= C", i, ", X", i, " <= D", i);
    xs += StrCat(sep, "X", i);
    zs += StrCat(sep, "Z", i);
  }
  ExportFixture f;
  const Query view = MustParseQuery(
      StrCat("v(", bounds, ") :- p(", xs, "), d(", bounds, ")", acs));
  EXPECT_TRUE(f.views.Add(Preprocess(view).value()).ok());
  f.q = MustParseQuery(StrCat("q(", zs, ") :- p(", zs, ")"));
  for (const Query& v : f.views.views()) f.analyses.emplace_back(v);
  return f;
}

// One MCD skeleton's product of export homomorphisms is charged to
// Budget::max_mappings instead of being cut silently: 4^5 = 1024 MCDs.
TEST(McdTest, ExportProductIsChargedToTheMappingBudget) {
  const ExportFixture f = BoundedExports(5);
  for (size_t threads : {size_t{0}, size_t{4}}) {
    TaskPool pool(threads);
    EngineContext ctx;
    ctx.set_task_pool(&pool);
    auto mcds = ConstructMcds(ctx, f.q, f.views, f.analyses);
    ASSERT_TRUE(mcds.ok()) << mcds.status();
    EXPECT_EQ(mcds.value().size(), 1024u) << "threads=" << threads;
    EXPECT_EQ(ctx.stats().rewrite_mcds, 1024u);

    Budget budget;
    budget.max_mappings = 500;
    EngineContext tight(budget);
    tight.set_task_pool(&pool);
    auto cut = ConstructMcds(tight, f.q, f.views, f.analyses);
    ASSERT_FALSE(cut.ok()) << "threads=" << threads;
    EXPECT_EQ(cut.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(tight.stats().budget_exhaustions, 1u) << "threads=" << threads;
  }
}

// The deadline bounds every pass over an export product, not only building
// it. 4^8 = 65536 combinations fit the mapping budget, but checking each
// against the view's comparisons and then pruning the dominated ones pair
// by pair (65536^2 pairs) would run for hours without a poll.
TEST(McdTest, ExportProductPassesPollTheDeadline) {
  const ExportFixture f = BoundedExports(8);
  EngineContext ctx(Budget::WithTimeout(std::chrono::milliseconds(100)));
  const auto start = std::chrono::steady_clock::now();
  auto mcds = ConstructMcds(ctx, f.q, f.views, f.analyses);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(mcds.ok());
  EXPECT_EQ(mcds.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stats().budget_exhaustions, 1u);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
}

}  // namespace
}  // namespace cqac
