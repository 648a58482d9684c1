// E3 (Example 1.1): rewriting with exportable variables, scaled.
//
// Example 1.1's point: v1 yields a contained rewriting only because its
// hidden variable X is exportable (Y <= X <= Z), while v2 (Y <= X < Z) is
// unusable. The bench scales the example by replicating the r/s pattern and
// the view pair, measuring RewriteLsiQuery and reporting how many
// rewritings each side contributes (v2's contribution must stay 0).
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/strings.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

// m copies of the Example 1.1 pattern over disjoint predicates.
void Scaled(int m, Query* q, ViewSet* views) {
  std::vector<std::string> items;
  for (int i = 0; i < m; ++i) items.push_back(StrCat("r", i, "(A", i, ")"));
  for (int i = 0; i < m; ++i) items.push_back(StrCat("A", i, " < 4"));
  *q = MustParseQuery(StrCat("q(A0) :- ", Join(items, ", ")));
  *views = ViewSet();
  for (int i = 0; i < m; ++i) {
    Status st = views->Add(MustParseQuery(
        StrCat("v1_", i, "(Y, Z) :- r", i, "(X), s", i,
               "(Y, Z), Y <= X, X <= Z")));
    if (st.ok())
      st = views->Add(MustParseQuery(
          StrCat("v2_", i, "(Y, Z) :- r", i, "(X), s", i,
                 "(Y, Z), Y <= X, X < Z")));
    if (!st.ok()) std::abort();
    // A plain identity view keeps the query answerable.
    st = views->Add(MustParseQuery(StrCat("w", i, "(X) :- r", i, "(X)")));
    if (!st.ok()) std::abort();
  }
}

void BM_Example11Scaled(benchmark::State& state) {
  Query q;
  ViewSet views;
  Scaled(static_cast<int>(state.range(0)), &q, &views);
  RewriteStats stats;
  size_t rewritings = 0;
  for (auto _ : state) {
    EngineContext ctx;
    auto mcr = RewriteLsiQuery(ctx, q, views, RewriteOptions{}, &stats);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    rewritings = mcr.ValueOr(UnionQuery{}).disjuncts.size();
    benchmark::DoNotOptimize(rewritings);
  }
  state.counters["rewritings"] = static_cast<double>(rewritings);
  state.counters["mcds"] = static_cast<double>(stats.mcds);
}
BENCHMARK(BM_Example11Scaled)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_Example11Exact(benchmark::State& state) {
  Query q = workloads::Example11Query();
  ViewSet views = workloads::Example11Views();
  for (auto _ : state) {
    EngineContext ctx;
    auto mcr = RewriteLsiQuery(ctx, q, views);
    if (!mcr.ok() || mcr.value().disjuncts.size() != 1)
      state.SkipWithError("expected exactly the paper's rewriting");
    benchmark::DoNotOptimize(mcr);
  }
}
BENCHMARK(BM_Example11Exact);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
