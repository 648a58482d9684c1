// Planner-equivalence sweep: every choice the planner offers is advisory
// about cost only, so forcing any arm must return byte-identical results.
//
// Three families, each over random workloads from src/gen and thread counts
// 0/1/4/8:
//
//   * Join order — EvaluateQuery under kPlanned vs kSyntactic vs the
//     tuple-at-a-time reference oracle, and under every rotation of the
//     written body order.
//   * Union evaluation — ViewPlan::Answer with the union-eval pin forced to
//     direct, forced to containment-pruning, and left on auto.
//   * IVM path — forced-incremental vs forced-rebuild vs planner-chosen
//     maintenance of a random insert/retract stream, plus both crossings of
//     the MaintainOptions::max_subset_positions structural cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/ivm/delta.h"
#include "src/ivm/maintain.h"
#include "src/rewriting/answer.h"

namespace cqac {
namespace {

constexpr size_t kThreadCounts[] = {0, 1, 4, 8};
constexpr uint64_t kSeeds[] = {3, 17, 20260808};

std::string RelationString(const Relation& r) {
  std::string out;
  for (const Tuple& t : r) out += TupleToString(t) + "\n";
  return out;
}

// One random (query, database) workload per seed; the query mixes SI
// comparisons so the batch evaluator's filters are exercised too.
struct EvalWorkload {
  Query query;
  Database db;
};

EvalWorkload MakeEvalWorkload(uint64_t seed) {
  Rng rng(seed);
  gen::QuerySpec spec;
  spec.num_subgoals = 3;
  spec.num_predicates = 3;
  spec.num_vars = 5;
  spec.ac_mode = gen::AcMode::kSi;
  spec.ac_density = 0.5;
  EvalWorkload w;
  w.query = gen::RandomQuery(rng, spec);
  gen::DatabaseSpec dbspec;
  dbspec.tuples_per_relation = 40;
  w.db = gen::RandomDatabase(rng, gen::SchemaOf(w.query), dbspec);
  return w;
}

TEST(PlanEquivalence, JoinOrderInvariantAcrossPinsThreadsAndPermutations) {
  for (uint64_t seed : kSeeds) {
    EvalWorkload w = MakeEvalWorkload(seed);
    Result<Relation> oracle = EvaluateQueryReference(w.query, w.db);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    const std::string expected = RelationString(oracle.value());

    for (size_t threads : kThreadCounts) {
      TaskPool pool(threads);
      EngineContext ctx;
      if (threads > 0) ctx.set_task_pool(&pool);
      for (EvalOptions::JoinOrder order : {EvalOptions::JoinOrder::kPlanned,
                                           EvalOptions::JoinOrder::kSyntactic}) {
        EvalOptions options;
        options.join_order = order;
        Result<Relation> r = EvaluateQuery(ctx, w.query, w.db, options);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(RelationString(r.value()), expected)
            << "seed=" << seed << " threads=" << threads
            << " order=" << static_cast<int>(order);
      }
      // Every rotation of the written body order must evaluate identically
      // under the planner — the planner may pick any execution order, and
      // the result must not depend on either order.
      for (size_t rot = 1; rot < w.query.body().size(); ++rot) {
        Query rotated = w.query;
        std::rotate(rotated.body().begin(), rotated.body().begin() + rot,
                    rotated.body().end());
        Result<Relation> r = EvaluateQuery(ctx, rotated, w.db);
        ASSERT_TRUE(r.ok()) << r.status();
        EXPECT_EQ(RelationString(r.value()), expected)
            << "seed=" << seed << " threads=" << threads << " rot=" << rot;
      }
    }
  }
}

TEST(PlanEquivalence, UnionEvalPinsReturnIdenticalCertainAnswers) {
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    gen::QuerySpec qspec;
    qspec.num_subgoals = 3;
    qspec.num_predicates = 2;
    qspec.num_vars = 4;
    qspec.ac_mode = gen::AcMode::kLsi;
    Query q = gen::RandomQuery(rng, qspec);
    gen::ViewSpec vspec;
    vspec.num_views = 4;
    ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);
    gen::DatabaseSpec dbspec;
    dbspec.tuples_per_relation = 30;
    Database db = gen::RandomDatabase(rng, gen::SchemaOf(views), dbspec);

    std::string expected;
    bool have_expected = false;
    for (size_t threads : kThreadCounts) {
      TaskPool pool(threads);
      for (plan::UnionEvalPin pin :
           {plan::UnionEvalPin::kForceDirect, plan::UnionEvalPin::kForcePrune,
            plan::UnionEvalPin::kAuto}) {
        EngineContext ctx;
        if (threads > 0) ctx.set_task_pool(&pool);
        Result<ViewPlan> vp = PlanForQuery(ctx, q, views);
        ASSERT_TRUE(vp.ok()) << vp.status();
        if (vp.value().kind != PlanKind::kFiniteUnion) continue;
        Result<Database> instance = MaterializeViews(ctx, views, db);
        ASSERT_TRUE(instance.ok()) << instance.status();
        AnswerOptions options;
        options.union_eval = pin;
        plan::Plan plan_record;
        Result<Relation> r =
            vp.value().Answer(ctx, instance.value(), options, &plan_record);
        ASSERT_TRUE(r.ok()) << r.status();
        ASSERT_EQ(plan_record.decisions.size(), 1u);
        EXPECT_EQ(plan_record.decisions[0].kind, "union-eval");
        if (!have_expected) {
          expected = RelationString(r.value());
          have_expected = true;
        }
        EXPECT_EQ(RelationString(r.value()), expected)
            << "seed=" << seed << " threads=" << threads
            << " pin=" << static_cast<int>(pin);
      }
    }
  }
}

// The counting maintainer under every path pin: the maintained state is the
// same database whichever way each batch was applied.
TEST(PlanEquivalence, IvmPathPinsConverge) {
  const char* kViews[] = {"v(X, Z) :- r(X, Y), s(Y, Z).",
                          "w(X) :- r(X, Y), X <= Y."};
  const char* kPreds[] = {"r", "s"};
  for (uint64_t seed : kSeeds) {
    std::string expected;
    bool have_expected = false;
    for (int mode = 0; mode < 3; ++mode) {
      for (size_t threads : {size_t{0}, size_t{4}}) {
        TaskPool pool(threads);
        EngineContext ctx;
        if (threads > 0) ctx.set_task_pool(&pool);
        ivm::MaterializedViewSet store;
        for (const char* v : kViews)
          ASSERT_TRUE(store.AddView(ctx, MustParseQuery(v)).ok());
        ivm::MaintainOptions options;
        options.force_incremental = mode == 0;
        options.force_rebuild = mode == 1;
        Rng rng(seed);
        std::string rendered;
        for (int step = 0; step < 8; ++step) {
          ivm::DeltaDatabase delta(&store.base());
          for (int i = 0; i < 4; ++i) {
            const char* pred = kPreds[rng.Uniform(0, 1)];
            const Relation& rel = store.base().Get(pred);
            if (!rel.empty() && rng.Chance(0.3)) {
              auto it = rel.begin();
              std::advance(it,
                           rng.Uniform(0, static_cast<int64_t>(rel.size()) - 1));
              ASSERT_TRUE(delta.StageRetract(pred, *it).ok());
            } else {
              ASSERT_TRUE(delta
                              .StageInsert(pred, {Value(rng.Uniform(0, 8)),
                                                  Value(rng.Uniform(0, 8))})
                              .ok());
            }
          }
          auto summary = store.Apply(ctx, delta, options);
          ASSERT_TRUE(summary.ok()) << summary.status();
          rendered += store.views().ToString() + "\n==\n";
        }
        if (!have_expected) {
          expected = rendered;
          have_expected = true;
        }
        EXPECT_EQ(rendered, expected)
            << "seed=" << seed << " mode=" << mode << " threads=" << threads;
      }
    }
  }
}

// Crossing MaintainOptions::max_subset_positions both ways: a view body with
// three delta-touched positions maintains incrementally under cap >= 3 and
// falls back to a rebuild under cap < 3 — with identical final state.
TEST(PlanEquivalence, SubsetPositionCapCrossesBothWays) {
  for (size_t cap : {size_t{2}, size_t{3}}) {
    EngineContext ctx;
    ivm::MaterializedViewSet store;
    ASSERT_TRUE(
        store
            .AddView(ctx, MustParseQuery(
                              "t(X, W) :- r(X, Y), r(Y, Z), r(Z, W)."))
            .ok());
    Result<Database> seedfacts =
        Database::FromFacts("r(1, 2). r(2, 3). r(3, 4).");
    ASSERT_TRUE(seedfacts.ok());
    ASSERT_TRUE(store.ApplyInsert(ctx, seedfacts.value()).ok());

    ivm::DeltaDatabase delta(&store.base());
    ASSERT_TRUE(delta.StageInsert("r", {Value(4), Value(5)}).ok());
    ivm::MaintainOptions options;
    options.max_subset_positions = cap;
    // A huge bias keeps the cost model from ever preferring the rebuild,
    // isolating the structural cap as the only rebuild trigger.
    options.rebuild_bias = 1e12;
    auto summary = store.Apply(ctx, delta, options);
    ASSERT_TRUE(summary.ok()) << summary.status();
    // The delta touches all three r-positions of the view body: under cap 2
    // the subset cap forces the rebuild, under cap 3 the incremental path
    // survives.
    EXPECT_EQ(summary.value().incremental, cap >= 3) << "cap=" << cap;

    // Either way the maintained state is exact.
    ViewSet views;
    ASSERT_TRUE(
        views.Add(MustParseQuery("t(X, W) :- r(X, Y), r(Y, Z), r(Z, W)."))
            .ok());
    Result<Database> reference = MaterializeViews(ctx, views, store.base());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(store.views().ToString(), reference.value().ToString());
  }
}

}  // namespace
}  // namespace cqac
