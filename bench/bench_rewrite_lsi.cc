// E7 (Figure 2: RewriteLSIQuery): the central algorithm under scale, versus
// the AC-blind baseline.
//
// Sweeps the number of views and the query size, reporting the rewriting
// count and MCD count. The AC-blind bucket baseline is run on the same
// workloads; the `missed` counter shows how many MCR rewritings the
// baseline's union fails to cover (the paper's motivation for the new
// algorithm: AC-blind rewriting both generates unsound candidates — which
// verification rejects — and misses export-based rewritings entirely).
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/gen/generators.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

struct Workload {
  Query q;
  ViewSet views;
};

Workload Draw(int num_views, int subgoals, uint64_t seed) {
  Rng rng(seed);
  gen::QuerySpec qspec;
  qspec.num_subgoals = subgoals;
  qspec.num_predicates = 2;
  qspec.num_vars = subgoals + 1;
  qspec.ac_density = 0.7;
  qspec.ac_mode = gen::AcMode::kLsi;
  qspec.boolean_head = true;
  Query q = gen::RandomQuery(rng, qspec);
  gen::ViewSpec vspec;
  vspec.num_views = num_views;
  vspec.max_subgoals = 2;
  vspec.ac_mode = gen::AcMode::kSi;
  ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);
  return {std::move(q), std::move(views)};
}

// Benchmark-scale search budget: large enough that small workloads finish
// exhaustively, small enough that the worst draw stays interactive.
Budget BenchBudget() {
  Budget budget;
  budget.max_mappings = 20000;
  return budget;
}

void BM_RewriteLsiViewsSweep(benchmark::State& state) {
  Workload w = Draw(static_cast<int>(state.range(0)), 3, 7);
  uint64_t mcds = 0;
  size_t rewritings = 0;
  for (auto _ : state) {
    EngineContext ctx(BenchBudget());
    auto mcr = RewriteLsiQuery(ctx, w.q, w.views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    rewritings = mcr.ValueOr(UnionQuery{}).disjuncts.size();
    mcds = ctx.stats().rewrite_mcds;
  }
  state.counters["views"] = static_cast<double>(state.range(0));
  state.counters["mcds"] = static_cast<double>(mcds);
  state.counters["rewritings"] = static_cast<double>(rewritings);
}
BENCHMARK(BM_RewriteLsiViewsSweep)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_RewriteLsiSubgoalsSweep(benchmark::State& state) {
  Workload w = Draw(6, static_cast<int>(state.range(0)), 11);
  uint64_t mcds = 0;
  for (auto _ : state) {
    EngineContext ctx(BenchBudget());
    auto mcr = RewriteLsiQuery(ctx, w.q, w.views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    mcds = ctx.stats().rewrite_mcds;
    benchmark::DoNotOptimize(mcr);
  }
  state.counters["subgoals"] = static_cast<double>(state.range(0));
  state.counters["mcds"] = static_cast<double>(mcds);
}
BENCHMARK(BM_RewriteLsiSubgoalsSweep)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6);

void BM_AcBlindBaselineCoverage(benchmark::State& state) {
  // How much of the MCR does an AC-blind bucket union cover?
  Workload w = Draw(static_cast<int>(state.range(0)), 3, 7);
  size_t missed = 0, total = 0, blind_rejects = 0;
  for (auto _ : state) {
    EngineContext ctx(BenchBudget());
    auto mcr = RewriteLsiQuery(ctx, w.q, w.views);
    BucketOptions blind;
    blind.ac_aware = false;
    EngineContext blind_ctx;  // default budget, its own cold memo
    auto baseline = BucketRewrite(blind_ctx, w.q, w.views, blind);
    if (!mcr.ok() || !baseline.ok()) {
      state.SkipWithError("rewriting failed");
      break;
    }
    missed = 0;
    total = mcr.value().disjuncts.size();
    blind_rejects = blind_ctx.stats().rewrite_verified_rejects;
    for (const Query& d : mcr.value().disjuncts) {
      EngineContext cover_ctx;
      auto covered = IsContainedInUnion(cover_ctx, d, baseline.value());
      if (covered.ok() && !covered.value()) ++missed;
    }
  }
  state.counters["mcr_rewritings"] = static_cast<double>(total);
  state.counters["baseline_missed"] = static_cast<double>(missed);
  state.counters["unsound_rejected"] = static_cast<double>(blind_rejects);
}
BENCHMARK(BM_AcBlindBaselineCoverage)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
