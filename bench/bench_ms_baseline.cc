// E8 (Table 3 / Section 4.1): the MS-algorithm example and the bucket
// baseline on pure CQs.
//
// On comparison-free inputs, RewriteLSIQuery degenerates to the MiniCon-style
// MCD machinery (Table 3's two MCDs for the car-dealer query) and the bucket
// algorithm must reach the same single rewriting. The bench scales the
// car-dealer pattern by chaining more subgoals and compares the two engines;
// `agree` must be 1 everywhere.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

// car(C, A0), hop(A0, A1), ..., hop(A_{n-1}, L): a longer dealer chain
// covered by pairwise views.
void ScaledCarDealer(int hops, Query* q, ViewSet* views) {
  std::vector<std::string> items;
  items.push_back("car(C, A0)");
  for (int i = 0; i < hops; ++i)
    items.push_back(StrCat("hop(A", i, ", A", i + 1, ")"));
  items.push_back("color(C, red)");
  *q = MustParseQuery(StrCat("q(C, A", hops, ") :- ", Join(items, ", ")));
  *views = ViewSet();
  Status st = views->Add(MustParseQuery("vc(X, D) :- car(X, D)"));
  if (st.ok()) st = views->Add(MustParseQuery("vh(X, Y) :- hop(X, Y)"));
  if (st.ok()) st = views->Add(MustParseQuery("vk(W, Z) :- color(W, Z)"));
  if (!st.ok()) std::abort();
}

void BM_McdEngineOnCq(benchmark::State& state) {
  Query q;
  ViewSet views;
  ScaledCarDealer(static_cast<int>(state.range(0)), &q, &views);
  size_t n = 0;
  for (auto _ : state) {
    EngineContext ctx;
    auto mcr = RewriteLsiQuery(ctx, q, views);
    if (!mcr.ok()) state.SkipWithError(mcr.status().ToString().c_str());
    n = mcr.ValueOr(UnionQuery{}).disjuncts.size();
  }
  state.counters["rewritings"] = static_cast<double>(n);
}
BENCHMARK(BM_McdEngineOnCq)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void BM_BucketOnCq(benchmark::State& state) {
  Query q;
  ViewSet views;
  ScaledCarDealer(static_cast<int>(state.range(0)), &q, &views);
  size_t n = 0;
  for (auto _ : state) {
    EngineContext ctx;
    auto u = BucketRewrite(ctx, q, views);
    if (!u.ok()) state.SkipWithError(u.status().ToString().c_str());
    n = u.ValueOr(UnionQuery{}).disjuncts.size();
  }
  state.counters["rewritings"] = static_cast<double>(n);
}
BENCHMARK(BM_BucketOnCq)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void BM_CarDealerAgreement(benchmark::State& state) {
  Query q = workloads::CarDealerQuery();
  ViewSet views = workloads::CarDealerViews();
  int agree = 0;
  for (auto _ : state) {
    EngineContext a_ctx, b_ctx, eq_ctx;  // each call starts cold
    auto a = RewriteLsiQuery(a_ctx, q, views);
    auto b = BucketRewrite(b_ctx, q, views);
    agree = 0;
    if (a.ok() && b.ok() && a.value().disjuncts.size() == 1 &&
        b.value().disjuncts.size() == 1) {
      auto eq = IsEquivalent(eq_ctx, a.value().disjuncts[0],
                             b.value().disjuncts[0]);
      agree = (eq.ok() && eq.value()) ? 1 : 0;
    }
  }
  state.counters["agree"] = agree;  // must be 1
}
BENCHMARK(BM_CarDealerAgreement);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
