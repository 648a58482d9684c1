// Ablations for the library's own design choices (DESIGN.md section 5):
//  * hash-indexed backtracking join vs a naive nested-loop join;
//  * semi-naive Datalog evaluation vs naive re-derivation to fixpoint;
//  * RewriteLSIQuery with and without the per-rewriting verification net;
//  * the EngineContext decision cache on vs off on a repeated workload.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/rng.h"
#include "src/datalog/engine.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

Database ChainDb(size_t n) {
  Rng rng(n);
  Database db;
  for (size_t i = 0; i < n; ++i) {
    Status st = db.Insert(
        "e", {Value(Rational(rng.Uniform(0, static_cast<int64_t>(n / 2)))),
              Value(Rational(rng.Uniform(0, static_cast<int64_t>(n / 2))))});
    if (!st.ok()) std::abort();
  }
  return db;
}

const char* kTriangle = "q(A, C) :- e(A, B), e(B, C), e(C, A)";

void BM_JoinIndexed(benchmark::State& state) {
  Database db = ChainDb(static_cast<size_t>(state.range(0)));
  Query q = MustParseQuery(kTriangle);
  EngineContext ctx;  // no pool: the serial join in written order
  const EvalOptions written{EvalOptions::JoinOrder::kSyntactic};
  size_t answers = 0;
  for (auto _ : state) {
    auto r = EvaluateQuery(ctx, q, db, written);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    answers = r.ValueOr(Relation{}).size();
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_JoinIndexed)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

// Deliberately index-free reference join for the ablation.
void BM_JoinNaive(benchmark::State& state) {
  Database db = ChainDb(static_cast<size_t>(state.range(0)));
  const Relation& e = db.Get("e");
  size_t answers = 0;
  for (auto _ : state) {
    Relation out;
    for (const Tuple& t1 : e)
      for (const Tuple& t2 : e) {
        if (!(t1[1] == t2[0])) continue;
        for (const Tuple& t3 : e)
          if (t2[1] == t3[0] && t3[1] == t1[0])
            out.insert({t1[0], t2[1]});
      }
    answers = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_JoinNaive)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

void BM_DatalogSemiNaive(benchmark::State& state) {
  Database db;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i + 1 < n; ++i) {
    Status st =
        db.Insert("e", {Value(Rational(i)), Value(Rational(i + 1))});
    if (!st.ok()) std::abort();
  }
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- e(X, Y), t(Y, Z)."));
  datalog::Engine engine(p);
  size_t facts = 0;
  for (auto _ : state) {
    auto r = engine.Query(db);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    facts = r.ValueOr(Relation{}).size();
  }
  state.counters["tc_facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_DatalogSemiNaive)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// Naive fixpoint: recompute every rule over the FULL database each round.
void BM_DatalogNaiveReference(benchmark::State& state) {
  Database db;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i + 1 < n; ++i) {
    Status st =
        db.Insert("e", {Value(Rational(i)), Value(Rational(i + 1))});
    if (!st.ok()) std::abort();
  }
  Query base = MustParseQuery("t(X, Y) :- e(X, Y)");
  Query step = MustParseQuery("t(X, Z) :- e(X, Y), t(Y, Z)");
  EngineContext ctx;  // no pool: the serial join in written order
  const EvalOptions written{EvalOptions::JoinOrder::kSyntactic};
  size_t facts = 0;
  for (auto _ : state) {
    Database work = db;
    size_t before = 0;
    while (true) {
      for (const Query& rule : {base, step}) {
        auto r = EvaluateQuery(ctx, rule, work, written);
        if (!r.ok()) {
          state.SkipWithError(r.status().ToString().c_str());
          return;
        }
        for (const Tuple& t : r.value()) {
          Status st = work.Insert("t", t);
          if (!st.ok()) std::abort();
        }
      }
      size_t now = work.Get("t").size();
      if (now == before) break;
      before = now;
    }
    facts = before;
  }
  state.counters["tc_facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_DatalogNaiveReference)->Arg(16)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void RunRewrite(benchmark::State& state, bool verify) {
  Query q = workloads::Sec44FullQuery();
  ViewSet views = workloads::Sec44FullViews();
  RewriteOptions opts;
  opts.verify_rewritings = verify;
  size_t rewritings = 0;
  for (auto _ : state) {
    EngineContext ctx;
    auto mcr = RewriteLsiQuery(ctx, q, views, opts);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    rewritings = mcr.ValueOr(UnionQuery{}).disjuncts.size();
  }
  state.counters["rewritings"] = static_cast<double>(rewritings);
}
void BM_RewriteWithVerification(benchmark::State& state) {
  RunRewrite(state, true);
}
void BM_RewriteWithoutVerification(benchmark::State& state) {
  RunRewrite(state, false);
}
BENCHMARK(BM_RewriteWithVerification);
BENCHMARK(BM_RewriteWithoutVerification);

// Decision-cache ablation: the same rewrite workload against one shared
// context, with memoization enabled vs disabled. The cached run pays the
// containment cost once and answers repeats from the memo; the uncached
// run re-decides every time (results are identical either way — the cache
// only changes cost, never answers).
void RunRewriteCacheAblation(benchmark::State& state, bool cached) {
  Query q = workloads::Sec44FullQuery();
  ViewSet views = workloads::Sec44FullViews();
  EngineContext ctx;
  ctx.set_caching_enabled(cached);
  size_t rewritings = 0;
  for (auto _ : state) {
    auto mcr = RewriteLsiQuery(ctx, q, views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    rewritings = mcr.ValueOr(UnionQuery{}).disjuncts.size();
  }
  state.counters["rewritings"] = static_cast<double>(rewritings);
  state.counters["containment_hit_rate"] = ctx.stats().ContainmentHitRate();
}
void BM_RewriteCached(benchmark::State& state) {
  RunRewriteCacheAblation(state, true);
}
void BM_RewriteUncached(benchmark::State& state) {
  RunRewriteCacheAblation(state, false);
}
BENCHMARK(BM_RewriteCached);
BENCHMARK(BM_RewriteUncached);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
