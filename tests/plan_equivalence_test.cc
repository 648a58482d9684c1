// Planner-equivalence sweep: every choice the planner offers is advisory
// about cost only, so forcing any arm must return byte-identical results.
//
// Two families, each over random workloads from src/gen and thread counts
// 0/1/4/8:
//
//   * Join order — EvaluateQuery under kPlanned vs kSyntactic vs the
//     tuple-at-a-time reference oracle, and under every rotation of the
//     written body order.
//   * IVM path — forced-incremental vs forced-rebuild vs planner-chosen
//     maintenance of a random insert/retract stream, plus both crossings of
//     the plan::kMaxSubsetPositions structural cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/ivm/delta.h"
#include "src/ivm/maintain.h"

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
        const plan::IvmPath path = mode == 0   ? plan::IvmPath::kIncremental
                                   : mode == 1 ? plan::IvmPath::kRebuild
                                               : plan::IvmPath::kPlanned;
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
          auto summary = store.Apply(ctx, delta, path);
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

// Crossing plan::kMaxSubsetPositions both ways: a one-fact insert into a
// chain view whose body has kMaxSubsetPositions r-atoms is maintained
// incrementally, and one with a position more falls back to a rebuild, with
// identical final state. Over a 40-edge base the cost model prefers the
// incremental path for both bodies (asserted first), so the cap is the only
// rebuild trigger.
TEST(PlanEquivalence, SubsetPositionCapCrossesBothWays) {
  for (size_t positions :
       {plan::kMaxSubsetPositions, plan::kMaxSubsetPositions + 1}) {
    EngineContext ctx;
    ivm::MaterializedViewSet store;
    // t(X0, Xn) :- r(X0, X1), r(X1, X2), ..., r(Xn-1, Xn).
    std::string body;
    for (size_t i = 0; i < positions; ++i)
      body += StrCat(i > 0 ? ", " : "", "r(X", i, ", X", i + 1, ")");
    const std::string rule = StrCat("t(X0, X", positions, ") :- ", body, ".");
    ASSERT_TRUE(store.AddView(ctx, MustParseQuery(rule)).ok());
    std::string chain;
    for (int i = 1; i <= 40; ++i) chain += StrCat("r(", i, ", ", i + 1, "). ");
    Result<Database> seedfacts = Database::FromFacts(chain);
    ASSERT_TRUE(seedfacts.ok());
    ASSERT_TRUE(store.ApplyInsert(ctx, seedfacts.value()).ok());

    ivm::DeltaDatabase delta(&store.base());
    ASSERT_TRUE(delta.StageInsert("r", {Value(41), Value(42)}).ok());
    const Query view = MustParseQuery(rule);
    auto delta_size = [&delta](const std::string& p) {
      return delta.plus().Get(p).size();
    };
    auto base_size = [&store](const std::string& p) {
      return store.base().Get(p).size();
    };
    const plan::IvmPathChoice by_cost = plan::ChooseIvmPath(
        ctx, plan::CountingDeltaEstimate(view, delta_size),
        plan::CountingRebuildEstimate(view, base_size),
        plan::kMaxSubsetPositions, plan::IvmPath::kPlanned);
    EXPECT_FALSE(by_cost.rebuild) << "positions=" << positions;

    auto summary = store.Apply(ctx, delta, plan::IvmPath::kPlanned);
    ASSERT_TRUE(summary.ok()) << summary.status();
    // The delta touches every r-position of the view body.
    EXPECT_EQ(summary.value().incremental,
              positions <= plan::kMaxSubsetPositions)
        << "positions=" << positions;

    // Either way the maintained state is exact.
    ViewSet views;
    ASSERT_TRUE(views.Add(view).ok());
    Result<Database> reference = MaterializeViews(ctx, views, store.base());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(store.views().ToString(), reference.value().ToString());
  }
}

}  // namespace
}  // namespace cqac
