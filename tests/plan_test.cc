// Unit tests for the cost-based planner spine (src/plan): the KMV distinct
// sketches and their Database integration, the streaming-histogram
// calibration, the greedy join-order model, and the IVM-path / union-eval
// decision procedures with their pins and structural guards.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/adaptive.h"
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

// ---- Streaming histogram / calibration ------------------------------------

TEST(StreamingHistogram, QuantilesAndFallback) {
  StreamingHistogram h;
  EXPECT_EQ(h.Quantile(0.5, 7.25), 7.25);  // empty -> fallback
  for (int i = 0; i < 100; ++i) h.Observe(2.0);
  const double med = h.Quantile(0.5, 1.0);
  EXPECT_GT(med, 1.8);
  EXPECT_LT(med, 2.3);
  h.Reset();
  EXPECT_EQ(h.Quantile(0.5, 7.25), 7.25);
}

TEST(ArmCalibration, RetunesEveryPeriodTowardObservedMedian) {
  ArmCalibration arm(1.0);
  bool retuned = false;
  for (uint64_t i = 0; i < ArmCalibration::kRetunePeriod; ++i)
    retuned = arm.Observe(4.0);
  EXPECT_TRUE(retuned);  // the period-th observation triggers the retune
  EXPECT_GT(arm.factor, 3.0);
  EXPECT_LT(arm.factor, 6.0);
  EXPECT_EQ(arm.retunes, 1u);
}

TEST(ArmCalibration, FactorIsClamped) {
  ArmCalibration arm(1.0);
  for (uint64_t i = 0; i < ArmCalibration::kRetunePeriod; ++i) arm.Observe(1e9);
  EXPECT_LE(arm.factor, 64.0);
  ArmCalibration tiny(1.0);
  for (uint64_t i = 0; i < ArmCalibration::kRetunePeriod; ++i) tiny.Observe(1e-9);
  EXPECT_GE(tiny.factor, 1.0 / 64.0);
}

// ---- Join order -----------------------------------------------------------

TEST(PlanJoinOrder, ReordersWhenSelectiveAtomExists) {
  Query q = MustParseQuery("q(X, Z) :- big(X, Y), small(Y, Z).");
  plan::StatsView stats;
  stats.Set("big", {1000, {}});
  stats.Set("small", {2, {}});
  plan::JoinOrderPlan p = plan::PlanJoinOrder(q, stats);
  EXPECT_TRUE(p.reordered);
  EXPECT_EQ(p.order, (std::vector<size_t>{1, 0}));
  EXPECT_LT(p.est_planned, p.est_syntactic);
  plan::Decision d = p.ToDecision();
  EXPECT_EQ(d.kind, "join-order");
  EXPECT_EQ(d.choice, "[1, 0]");
}

TEST(PlanJoinOrder, KeepsSyntacticOrderOnTies) {
  Query q = MustParseQuery("q(X, Z) :- r(X, Y), s(Y, Z).");
  plan::StatsView stats;
  stats.Set("r", {10, {}});
  stats.Set("s", {10, {}});
  plan::JoinOrderPlan p = plan::PlanJoinOrder(q, stats);
  EXPECT_FALSE(p.reordered);
  EXPECT_EQ(p.order, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(p.est_planned, p.est_syntactic);
}

TEST(PlanJoinOrder, DistinctSketchesCreditConstants) {
  // sel has a constant-bound first column with 100 distinct values, so its
  // effective size is ~1% of its row count — cheap enough to lead.
  Query q = MustParseQuery("q(X) :- r(X, Y), sel(5, X).");
  plan::StatsView stats;
  stats.Set("r", {50, {}});
  stats.Set("sel", {100, {100, 0}});
  plan::JoinOrderPlan p = plan::PlanJoinOrder(q, stats);
  EXPECT_TRUE(p.reordered);
  EXPECT_EQ(p.order, (std::vector<size_t>{1, 0}));
}

// ---- IVM path choice ------------------------------------------------------

TEST(ChooseIvmPath, PinsWin) {
  EngineContext ctx;
  plan::IvmPathChoice c = plan::ChooseIvmPath(
      ctx, plan::IvmKind::kCounting, /*est_incremental=*/1.0,
      /*est_rebuild=*/1e9, /*rebuild_bias=*/1.0, /*max_touched=*/1,
      /*max_subset_positions=*/10, /*force_incremental=*/false,
      /*force_rebuild=*/true);
  EXPECT_TRUE(c.rebuild);
  EXPECT_TRUE(c.forced);

  c = plan::ChooseIvmPath(ctx, plan::IvmKind::kCounting, 1e9, 1.0, 1.0, 1, 10,
                          /*force_incremental=*/true, false);
  EXPECT_FALSE(c.rebuild);
  EXPECT_TRUE(c.forced);
}

TEST(ChooseIvmPath, SubsetCapForcesRebuild) {
  EngineContext ctx;
  // 5 touched positions against a cap of 4: structural rebuild even though
  // the incremental estimate is far cheaper.
  plan::IvmPathChoice c = plan::ChooseIvmPath(
      ctx, plan::IvmKind::kCounting, 1.0, 1e9, 1.0, /*max_touched=*/5,
      /*max_subset_positions=*/4, false, false);
  EXPECT_TRUE(c.rebuild);
  EXPECT_TRUE(c.forced);
  // Same shape under a cap of 5: the cost comparison decides (incremental).
  c = plan::ChooseIvmPath(ctx, plan::IvmKind::kCounting, 1.0, 1e9, 1.0, 5, 5,
                          false, false);
  EXPECT_FALSE(c.rebuild);
  EXPECT_FALSE(c.forced);
}

TEST(ChooseIvmPath, CostComparisonDecides) {
  EngineContext ctx;
  plan::IvmPathChoice c = plan::ChooseIvmPath(
      ctx, plan::IvmKind::kDred, /*est_incremental=*/2000.0,
      /*est_rebuild=*/10.0, 1.0, 0, 0, false, false);
  EXPECT_TRUE(c.rebuild);
  EXPECT_FALSE(c.forced);
  c = plan::ChooseIvmPath(ctx, plan::IvmKind::kDred, 10.0, 2000.0, 1.0, 0, 0,
                          false, false);
  EXPECT_FALSE(c.rebuild);
  EXPECT_EQ(ctx.stats().plan_decisions, 2u);
}

TEST(ObserveIvmOutcome, RetunesCalibrationAfterPeriod) {
  EngineContext ctx;
  plan::IvmPathChoice c = plan::ChooseIvmPath(
      ctx, plan::IvmKind::kCounting, 100.0, 1e9, 1.0, 1, 10, false, false);
  ASSERT_FALSE(c.rebuild);
  // The incremental arm consistently costs 8x its estimate; after the
  // retune period the calibration factor reflects that.
  for (uint64_t i = 0; i < ArmCalibration::kRetunePeriod; ++i)
    plan::ObserveIvmOutcome(ctx, plan::IvmKind::kCounting, c, 800.0);
  EXPECT_EQ(ctx.stats().plan_retunes, 1u);
  EXPECT_GT(ctx.adaptive().ivm_incremental.factor, 4.0);
  // The recalibrated factor now tips the decision toward rebuild at a
  // margin the raw estimates would not.
  c = plan::ChooseIvmPath(ctx, plan::IvmKind::kCounting, 100.0, 200.0, 1.0, 1,
                          10, false, false);
  EXPECT_TRUE(c.rebuild);
}

// ---- Union evaluation -----------------------------------------------------

TEST(ChooseUnionEval, AutoWeighsPruneCostAgainstEval) {
  EngineContext ctx;
  // Small union, cheap eval: the n^2/2 containment checks don't pay.
  plan::UnionEvalChoice c =
      plan::ChooseUnionEval(ctx, 4, 100.0, plan::UnionEvalPin::kAuto);
  EXPECT_FALSE(c.prune);
  // Expensive eval: expected savings dominate the check cost.
  c = plan::ChooseUnionEval(ctx, 4, 100000.0, plan::UnionEvalPin::kAuto);
  EXPECT_TRUE(c.prune);
  // A single disjunct can never be pruned against a kept one.
  c = plan::ChooseUnionEval(ctx, 1, 1e12, plan::UnionEvalPin::kAuto);
  EXPECT_FALSE(c.prune);
}

TEST(ChooseUnionEval, PinsForceEitherArm) {
  EngineContext ctx;
  plan::UnionEvalChoice c =
      plan::ChooseUnionEval(ctx, 2, 1.0, plan::UnionEvalPin::kForcePrune);
  EXPECT_TRUE(c.prune);
  EXPECT_TRUE(c.forced);
  c = plan::ChooseUnionEval(ctx, 8, 1e12, plan::UnionEvalPin::kForceDirect);
  EXPECT_FALSE(c.prune);
  EXPECT_TRUE(c.forced);
}

TEST(ObserveUnionPrune, FeedsFractionAndCounters) {
  EngineContext ctx;
  plan::ObserveUnionPrune(ctx, 4, 3);
  EXPECT_EQ(ctx.stats().plan_unions_pruned, 3u);
  EXPECT_EQ(ctx.adaptive().union_prune.observations, 1u);
  plan::ObserveUnionPrune(ctx, 0, 0);  // no-op, not a division by zero
  EXPECT_EQ(ctx.adaptive().union_prune.observations, 1u);
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

TEST(AdaptiveState, RendersDeterministically) {
  EngineContext ctx;
  EXPECT_EQ(ctx.adaptive().ToString(),
            "ivm-counting incremental 1.000 (0 obs, 0 retunes), "
            "rebuild 1.000 (0 obs, 0 retunes)\n"
            "ivm-dred incremental 1.000 (0 obs, 0 retunes), "
            "rebuild 1.000 (0 obs, 0 retunes)\n"
            "union-prune fraction 0.500 (0 obs, 0 retunes)");
}

}  // namespace
}  // namespace cqac
