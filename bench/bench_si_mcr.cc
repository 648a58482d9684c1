// E12 (Figure 4): constructing and evaluating the recursive Datalog MCR.
//
// Sweeps (a) the number of SI views the construction must invert and (b)
// the size of the database the resulting program runs over. Coverage of the
// bounded unfoldings (the finite CRs the program subsumes) is asserted via
// evaluation.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {
namespace {

ViewSet ManyViews(int n) {
  ViewSet out;
  for (int i = 0; i < n; ++i) {
    // Alternating view shapes over the e relation with SI filters.
    std::string def;
    switch (i % 4) {
      case 0:
        def = StrCat("u", i, "(B) :- e(A, B), A > ", 6 + i);
        break;
      case 1:
        def = StrCat("u", i, "(A) :- e(A, B), B < ", 4 - i);
        break;
      case 2:
        def = StrCat("u", i, "(A, B) :- e(A, B)");
        break;
      default:
        def = StrCat("u", i, "(A, C) :- e(A, B), e(B, C), B > ", i);
        break;
    }
    Status st = out.Add(MustParseQuery(def));
    if (!st.ok()) std::abort();
  }
  return out;
}

void BM_McrConstructionViewsSweep(benchmark::State& state) {
  Query q = workloads::Example12Query();
  ViewSet views = ManyViews(static_cast<int>(state.range(0)));
  size_t rules = 0;
  for (auto _ : state) {
    // Fresh context per call; the pool fans the per-view v^CQ
    // constructions out across workers.
    EngineContext ctx;
    bench::AttachPool(ctx);
    auto mcr = RewriteSiQueryDatalog(ctx, q, views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    rules = mcr.ValueOr(SiMcr{}).rules.size();
  }
  state.counters["views"] = static_cast<double>(state.range(0));
  state.counters["rules"] = static_cast<double>(rules);
  bench::RecordSpeedup(state, [&](EngineContext& ctx) {
    auto mcr = RewriteSiQueryDatalog(ctx, q, views);
    benchmark::DoNotOptimize(mcr);
  });
}
BENCHMARK(BM_McrConstructionViewsSweep)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_McrEvaluationDbSweep(benchmark::State& state) {
  Query q = workloads::Example12Query();
  ViewSet views = workloads::Example12Views();
  EngineContext ctx;
  auto mcr = RewriteSiQueryDatalog(ctx, q, views);
  if (!mcr.ok()) {
    state.SkipWithError(mcr.status().ToString().c_str());
    return;
  }
  datalog::Engine engine = mcr.value().MakeEngine();

  Rng rng(static_cast<uint64_t>(state.range(0)));
  gen::DatabaseSpec spec;
  spec.tuples_per_relation = static_cast<size_t>(state.range(0));
  spec.value_min = 0;
  spec.value_max = 12;
  Database db = gen::RandomDatabase(rng, {{"e", 2}}, spec);
  Database vdb = MaterializeViews(ctx, views, db).value();

  for (auto _ : state) {
    auto r = engine.Query(vdb);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.counters["base_tuples"] = static_cast<double>(db.TotalTuples());
  state.counters["view_tuples"] = static_cast<double>(vdb.TotalTuples());
}
BENCHMARK(BM_McrEvaluationDbSweep)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
