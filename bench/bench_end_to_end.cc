// E14: end-to-end certain-answer pipeline throughput.
//
// Full pipeline on a realistic integration workload: rewrite once, then
// per database instance materialize the views and evaluate the MCR,
// checking soundness (answers subset of the direct evaluation) as the
// database grows from 10^2 to 10^5 tuples.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/plan/planner.h"
#include "src/rewriting/answer.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

const char* kQuery =
    "q(C) :- car(C, D), loc(D, irvine), price(C, P), P < 30";
const char* kViews =
    "dealers_web(C, L) :- car(C, D), loc(D, L).\n"
    "budget_cars(C) :- price(C, P), P < 25.\n"
    "pricing_api(C, P) :- price(C, P).";

Database WorldOfSize(size_t tuples, uint64_t seed) {
  Rng rng(seed);
  Database db;
  const int64_t cars = static_cast<int64_t>(tuples);
  for (int64_t c = 0; c < cars; ++c) {
    int64_t dealer = rng.Uniform(0, cars / 4 + 1);
    Status st = db.Insert("car", {Value(Rational(c)),
                                  Value(Rational(dealer))});
    if (st.ok())
      st = db.Insert("price",
                     {Value(Rational(c)), Value(Rational(rng.Uniform(5, 60)))});
    if (!st.ok()) std::abort();
  }
  for (int64_t d = 0; d <= cars / 4 + 1; ++d) {
    Value place = rng.Chance(0.4) ? Value(std::string("irvine"))
                                  : Value(std::string("tustin"));
    Status st = db.Insert("loc", {Value(Rational(d)), place});
    if (!st.ok()) std::abort();
  }
  return db;
}

void BM_EndToEndCertainAnswers(benchmark::State& state) {
  Query q = MustParseQuery(kQuery);
  ViewSet views(MustParseRules(kViews));
  EngineContext rewrite_ctx;
  auto mcr = RewriteLsiQuery(rewrite_ctx, q, views);
  if (!mcr.ok() || mcr.value().empty()) {
    state.SkipWithError("rewriting failed");
    return;
  }
  Database world = WorldOfSize(static_cast<size_t>(state.range(0)), 5);

  size_t answers = 0;
  EngineContext ctx;
  bench::AttachPool(ctx);
  for (auto _ : state) {
    // View materialization and union evaluation both fan out: one task per
    // view / disjunct, plus chunked joins inside each evaluation.
    Database vdb = MaterializeViews(ctx, views, world).value();
    auto ans = EvaluateUnion(ctx, mcr.value(), vdb);
    if (!ans.ok()) state.SkipWithError(ans.status().ToString().c_str());
    answers = ans.ValueOr(Relation{}).size();
    benchmark::DoNotOptimize(answers);
  }
  // Soundness check outside the timed region, serially.
  EngineContext check;
  Relation truth = EvaluateQuery(check, q, world).value();
  Database vdb = MaterializeViews(check, views, world).value();
  Relation certain = EvaluateUnion(check, mcr.value(), vdb).value();
  for (const Tuple& t : certain)
    if (!truth.count(t)) state.SkipWithError("unsound certain answer");

  state.counters["base_tuples"] = static_cast<double>(world.TotalTuples());
  state.counters["certain_answers"] = static_cast<double>(answers);
  state.counters["true_answers"] = static_cast<double>(truth.size());
  bench::RecordSpeedup(state, [&](EngineContext& c) {
    Database views_db = MaterializeViews(c, views, world).value();
    auto ans = EvaluateUnion(c, mcr.value(), views_db);
    benchmark::DoNotOptimize(ans);
  });
}
BENCHMARK(BM_EndToEndCertainAnswers)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_RewriteOnly(benchmark::State& state) {
  Query q = MustParseQuery(kQuery);
  ViewSet views(MustParseRules(kViews));
  for (auto _ : state) {
    EngineContext ctx;  // cold: a fresh memo per rewrite
    auto mcr = RewriteLsiQuery(ctx, q, views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    benchmark::DoNotOptimize(mcr);
  }
}
BENCHMARK(BM_RewriteOnly);

// One EngineContext shared across all iterations: after the first rewrite
// warms the decision cache, every containment/implication decision is a
// memo hit. The hit-rate counters quantify the EngineContext cache's
// effectiveness on a repeated-workload session.
void BM_RewriteSharedContext(benchmark::State& state) {
  Query q = MustParseQuery(kQuery);
  ViewSet views(MustParseRules(kViews));
  EngineContext ctx;
  for (auto _ : state) {
    auto mcr = RewriteLsiQuery(ctx, q, views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    benchmark::DoNotOptimize(mcr);
  }
  const EngineStats& s = ctx.stats();
  state.counters["containment_calls"] =
      static_cast<double>(s.containment_calls);
  state.counters["containment_cache_hits"] =
      static_cast<double>(s.containment_cache_hits);
  state.counters["implication_cache_hits"] =
      static_cast<double>(s.implication_cache_hits);
  state.counters["containment_hit_rate"] = s.ContainmentHitRate();
  state.counters["cache_bytes"] = static_cast<double>(ctx.cache_bytes());
}
BENCHMARK(BM_RewriteSharedContext);

// E16: the planner's join-order choice against the written order.
//
// The body is written worst-first: a grows with the size arg and fans out
// 10x through b before the single-tuple sel filters everything down, so the
// syntactic order drags a 10x-inflated intermediate through the whole join.
// The greedy planner starts from sel instead. arg1 pins the order
// (0 = planned, 1 = syntactic); the planned/syntactic time ratio at each
// size is the measured win (EXPERIMENTS.md E16).
void BM_JoinOrderPlanned(benchmark::State& state) {
  const int64_t n = state.range(0);
  Query q = MustParseQuery("q(W) :- a(X, Y), b(Y, Z), sel(Z, W).");
  Database db;
  for (int64_t i = 0; i < n; ++i) {
    Status st = db.Insert("a", {Value(Rational(i)), Value(Rational(i % 10))});
    if (!st.ok()) std::abort();
  }
  for (int64_t y = 0; y < 10; ++y)
    for (int64_t z = 0; z < 10; ++z) {
      Status st = db.Insert("b", {Value(Rational(y)), Value(Rational(z))});
      if (!st.ok()) std::abort();
    }
  if (!db.Insert("sel", {Value(Rational(0)), Value(Rational(0))}).ok())
    std::abort();

  EvalOptions options;
  options.join_order = state.range(1) == 0 ? EvalOptions::JoinOrder::kPlanned
                                           : EvalOptions::JoinOrder::kSyntactic;
  EngineContext ctx;
  bench::AttachPool(ctx);
  size_t answers = 0;
  for (auto _ : state) {
    auto r = EvaluateQuery(ctx, q, db, options);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    answers = r.ValueOr(Relation{}).size();
    benchmark::DoNotOptimize(answers);
  }
  plan::JoinOrderPlan jp = plan::PlanJoinOrder(q, DatabaseCardinalities(db));
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["planner_reordered"] = jp.reordered ? 1 : 0;
  bench::RecordParallelCounters(state, ctx);
}
BENCHMARK(BM_JoinOrderPlanned)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Unit(benchmark::kMicrosecond);

// E17: the union-eval strategy flip by instance size.
//
// A 6-disjunct union over one view relation where every disjunct after the
// first is contained in it. The containment checks cost a fixed ~n^2/2
// probes while the redundant evaluation cost grows with the instance, so
// the planner answers directly on small instances and flips to
// containment-pruning past the break-even. arg1 pins the strategy
// (0 = auto, 1 = force-direct, 2 = force-prune); the auto row matches the
// direct row at the small size and the prune row at the large one
// (EXPERIMENTS.md E17).
void BM_UnionPruneBySize(benchmark::State& state) {
  const int64_t n = state.range(0);
  UnionQuery u;
  u.disjuncts.push_back(MustParseQuery("q(X, Y) :- v(X, Y), X <= 1000000."));
  for (int64_t i = 1; i < 6; ++i)
    u.disjuncts.push_back(MustParseQuery(
        StrCat("q(X, Y) :- v(X, Y), X <= ", 1000000 - i * 7, ".")));
  ViewPlan plan;
  plan.kind = PlanKind::kFiniteUnion;
  plan.union_plan = std::move(u);

  Rng rng(11);
  Database instance;
  for (int64_t i = 0; i < n; ++i) {
    Status st = instance.Insert(
        "v", {Value(Rational(rng.Uniform(0, 100000))), Value(Rational(i))});
    if (!st.ok()) std::abort();
  }

  AnswerOptions options;
  options.union_eval = state.range(1) == 0   ? plan::UnionEvalPin::kAuto
                       : state.range(1) == 1 ? plan::UnionEvalPin::kForceDirect
                                             : plan::UnionEvalPin::kForcePrune;
  EngineContext ctx;
  bench::AttachPool(ctx);
  size_t answers = 0;
  bool pruned = false;
  for (auto _ : state) {
    plan::Plan record;
    auto r = plan.Answer(ctx, instance, options, &record);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    answers = r.ValueOr(Relation{}).size();
    pruned = !record.decisions.empty() &&
             record.decisions.back().choice == "prune";
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["strategy_prune"] = pruned ? 1 : 0;
  bench::RecordParallelCounters(state, ctx);
}
BENCHMARK(BM_UnionPruneBySize)
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({200, 2})
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN_WITH_JSON("eval")
