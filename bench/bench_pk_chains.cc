// E4 (Example 1.2 / Proposition 5.1): the P_k chain family versus the
// recursive Datalog MCR.
//
// Regenerates the paper's separation: each P_k (a finite CQAC rewriting)
// only answers chain databases of its exact depth, while the single
// recursive MCR answers all of them. Measures (a) evaluating P_k on its
// view instance, (b) evaluating the Datalog MCR on the same instance, and
// verifies coverage (mcr_fires == 1) at every depth.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/eval/evaluate.h"
#include "src/gen/paper_workloads.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {
namespace {

Database ChainDatabase(int k) {
  Database db;
  const int n = 2 * k + 2;
  auto val = [n](int j) {
    if (j == 0) return Rational(9);
    if (j == n) return Rational(3);
    return Rational(4 * (n + 1) + 2 * j, n + 1);
  };
  for (int i = 0; i < n; ++i) {
    Status st = db.Insert("e", {Value(val(i)), Value(val(i + 1))});
    if (!st.ok()) std::abort();
  }
  return db;
}

void BM_PkEvaluation(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  ViewSet views = workloads::Example12Views();
  EngineContext ctx;
  Database vdb = MaterializeViews(ctx, views, ChainDatabase(k)).value();
  Query pk = workloads::Example12Pk(k);
  bool fired = false;
  for (auto _ : state) {
    auto r = EvaluateQuery(ctx, pk, vdb);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    fired = !r.ValueOr(Relation{}).empty();
    benchmark::DoNotOptimize(fired);
  }
  state.counters["pk_fires"] = fired ? 1 : 0;
  state.counters["view_tuples"] = static_cast<double>(vdb.TotalTuples());
}
BENCHMARK(BM_PkEvaluation)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_DatalogMcrEvaluation(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  ViewSet views = workloads::Example12Views();
  EngineContext ctx;
  Database vdb = MaterializeViews(ctx, views, ChainDatabase(k)).value();
  auto mcr = RewriteSiQueryDatalog(ctx, workloads::Example12Query(), views);
  if (!mcr.ok()) {
    state.SkipWithError(mcr.status().ToString().c_str());
    return;
  }
  datalog::Engine engine = mcr.value().MakeEngine();
  bool fired = false;
  for (auto _ : state) {
    auto r = engine.Query(vdb);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    fired = !r.ValueOr(Relation{}).empty();
    benchmark::DoNotOptimize(fired);
  }
  state.counters["mcr_fires"] = fired ? 1 : 0;  // must be 1 at every depth
}
BENCHMARK(BM_DatalogMcrEvaluation)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

void BM_McrConstruction(benchmark::State& state) {
  ViewSet views = workloads::Example12Views();
  Query q = workloads::Example12Query();
  for (auto _ : state) {
    EngineContext ctx;
    auto mcr = RewriteSiQueryDatalog(ctx, q, views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    benchmark::DoNotOptimize(mcr);
  }
}
BENCHMARK(BM_McrConstruction);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
