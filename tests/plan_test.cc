// Unit tests for the cost-based planner spine (src/plan): the KMV distinct
// sketches and their Database integration, the greedy join-order model, and
// the IVM-path decision procedure with its pins and structural guard.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/ir/parser.h"
#include "src/plan/planner.h"
#include "src/plan/stats.h"

namespace cqac {
namespace {

// ---- Distinct sketches ----------------------------------------------------

TEST(DistinctSketch, ExactBelowSaturation) {
  plan::DistinctSketch s;
  for (int i = 0; i < 40; ++i) s.Observe(plan::SketchHash(Value(i)));
  EXPECT_EQ(s.Estimate(), 40u);
  // Re-observing the same values changes nothing.
  for (int i = 0; i < 40; ++i) s.Observe(plan::SketchHash(Value(i)));
  EXPECT_EQ(s.Estimate(), 40u);
}

TEST(DistinctSketch, ApproximateAtScale) {
  plan::DistinctSketch s;
  constexpr int kDistinct = 5000;
  for (int i = 0; i < kDistinct; ++i) s.Observe(plan::SketchHash(Value(i)));
  const double est = static_cast<double>(s.Estimate());
  // KMV with k=64 has ~1/sqrt(64) relative error; allow a generous band.
  EXPECT_GT(est, kDistinct * 0.6);
  EXPECT_LT(est, kDistinct * 1.6);
}

TEST(RelationStats, MaintainedOnDatabaseInserts) {
  Database db;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("p", {Value(i % 10), Value(i)}).ok());
  }
  // Column 0 cycles through 10 values: exact. Column 1 is all-distinct but
  // saturates the sketch: approximate.
  EXPECT_EQ(db.stats().DistinctEstimate("p", 0), 10u);
  const double est = static_cast<double>(db.stats().DistinctEstimate("p", 1));
  EXPECT_GT(est, 200 * 0.6);
  EXPECT_LT(est, 200 * 1.6);
  EXPECT_EQ(db.stats().DistinctEstimate("p", 2), 0u);   // out of range
  EXPECT_EQ(db.stats().DistinctEstimate("q", 0), 0u);   // unknown predicate

  const DatabaseCardinalities cards(db);
  EXPECT_EQ(cards("p"), 200u);
  EXPECT_EQ(cards("p", 0), 10u);
}

// ---- Join order -----------------------------------------------------------

/// Hand-set cardinalities: predicate -> (rows, per-column distinct counts);
/// an absent predicate or column reads 0 ("unknown").
using HandStats =
    std::map<std::string, std::pair<size_t, std::vector<size_t>>>;

plan::JoinOrderPlan PlanOver(const Query& q, const HandStats& stats) {
  auto rows = [&stats](const std::string& p) {
    auto it = stats.find(p);
    return it == stats.end() ? size_t{0} : it->second.first;
  };
  auto distinct = [&stats](const std::string& p, size_t c) {
    auto it = stats.find(p);
    if (it == stats.end() || c >= it->second.second.size()) return size_t{0};
    return it->second.second[c];
  };
  return plan::PlanJoinOrder(q, plan::Cardinalities{rows, distinct});
}

TEST(PlanJoinOrder, ReordersWhenSelectiveAtomExists) {
  Query q = MustParseQuery("q(X, Z) :- big(X, Y), small(Y, Z).");
  plan::JoinOrderPlan p =
      PlanOver(q, {{"big", {1000, {}}}, {"small", {2, {}}}});
  EXPECT_TRUE(p.reordered);
  EXPECT_EQ(p.order, (std::vector<size_t>{1, 0}));
  EXPECT_LT(p.est_planned, p.est_syntactic);
  plan::Decision d = p.ToDecision();
  EXPECT_EQ(d.kind, "join-order");
  EXPECT_EQ(d.choice, "[1, 0]");
}

TEST(PlanJoinOrder, KeepsSyntacticOrderOnTies) {
  Query q = MustParseQuery("q(X, Z) :- r(X, Y), s(Y, Z).");
  plan::JoinOrderPlan p = PlanOver(q, {{"r", {10, {}}}, {"s", {10, {}}}});
  EXPECT_FALSE(p.reordered);
  EXPECT_EQ(p.order, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(p.est_planned, p.est_syntactic);
}

TEST(PlanJoinOrder, DistinctSketchesCreditConstants) {
  // sel has a constant-bound first column with 100 distinct values, so its
  // effective size is ~1% of its row count — cheap enough to lead.
  Query q = MustParseQuery("q(X) :- r(X, Y), sel(5, X).");
  plan::JoinOrderPlan p =
      PlanOver(q, {{"r", {50, {}}}, {"sel", {100, {100, 0}}}});
  EXPECT_TRUE(p.reordered);
  EXPECT_EQ(p.order, (std::vector<size_t>{1, 0}));
}

// ---- IVM path choice ------------------------------------------------------

TEST(ChooseIvmPath, PinsWin) {
  EngineContext ctx;
  plan::IvmPathChoice c = plan::ChooseIvmPath(
      ctx, /*est_incremental=*/1.0, /*est_rebuild=*/1e9, /*max_touched=*/1,
      plan::IvmPath::kRebuild);
  EXPECT_TRUE(c.rebuild);
  EXPECT_TRUE(c.forced);

  c = plan::ChooseIvmPath(ctx, 1e9, 1.0, 1, plan::IvmPath::kIncremental);
  EXPECT_FALSE(c.rebuild);
  EXPECT_TRUE(c.forced);
}

TEST(ChooseIvmPath, SubsetCapForcesRebuild) {
  EngineContext ctx;
  // One touched position past the cap: structural rebuild even though the
  // incremental estimate is far cheaper.
  plan::IvmPathChoice c = plan::ChooseIvmPath(
      ctx, 1.0, 1e9, /*max_touched=*/plan::kMaxSubsetPositions + 1,
      plan::IvmPath::kPlanned);
  EXPECT_TRUE(c.rebuild);
  EXPECT_TRUE(c.forced);
  // At the cap: the cost comparison decides (incremental).
  c = plan::ChooseIvmPath(ctx, 1.0, 1e9, plan::kMaxSubsetPositions,
                          plan::IvmPath::kPlanned);
  EXPECT_FALSE(c.rebuild);
  EXPECT_FALSE(c.forced);
}

TEST(ChooseIvmPath, CostComparisonDecides) {
  EngineContext ctx;
  plan::IvmPathChoice c = plan::ChooseIvmPath(
      ctx, /*est_incremental=*/2000.0, /*est_rebuild=*/10.0, 0,
      plan::IvmPath::kPlanned);
  EXPECT_TRUE(c.rebuild);
  EXPECT_FALSE(c.forced);
  c = plan::ChooseIvmPath(ctx, 10.0, 2000.0, 0, plan::IvmPath::kPlanned);
  EXPECT_FALSE(c.rebuild);
  // A tie keeps the incremental path: the rebuild must be strictly cheaper.
  c = plan::ChooseIvmPath(ctx, 10.0, 10.0, 0, plan::IvmPath::kPlanned);
  EXPECT_FALSE(c.rebuild);
  EXPECT_EQ(ctx.stats().plan_decisions, 3u);
}

// ---- Rendering ------------------------------------------------------------

TEST(PlanRendering, ToStringAndJsonAreStable) {
  plan::Decision d;
  d.kind = "join-order";
  d.choice = "[1, 0]";
  d.est_chosen = 12;
  d.est_alternative = 40;
  d.detail = "test";
  EXPECT_EQ(d.ToString(), "join-order: [1, 0] (est 12 vs 40) — test");
  plan::Plan p;
  p.decisions.push_back(d);
  EXPECT_EQ(p.ToJson(),
            "{\"decisions\":[{\"kind\":\"join-order\",\"choice\":\"[1, 0]\","
            "\"est_chosen\":12,\"est_alternative\":40,\"forced\":false,"
            "\"detail\":\"test\"}]}");
}

}  // namespace
}  // namespace cqac
