// E5 (Section 2 / Figure 1): equivalence of CQACs whose comparisons differ.
//
// Section 2's decomposition example shows two CQACs with identical ordinary
// subgoals but different ACs that are nonetheless equivalent (the
// equalities implied by one side collapse it into the other). The bench
// measures two-way containment on such pairs as the collapsed chain grows.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

// a: chain r(X0,X1),...  with X0 <= X1 <= ... <= Xn <= X0  (all equal)
// b: the collapsed loop r(X,X),... with the same final filter.
void Pair(int n, Query* a, Query* b) {
  std::vector<std::string> items;
  for (int i = 0; i < n; ++i)
    items.push_back(StrCat("r(X", i, ", X", i + 1, ")"));
  for (int i = 0; i < n; ++i)
    items.push_back(StrCat("X", i, " <= X", i + 1));
  items.push_back(StrCat("X", n, " <= X0"));
  items.push_back("X0 < 5");
  *a = MustParseQuery(StrCat("q(X0) :- ", Join(items, ", ")));
  *b = MustParseQuery("q(X) :- r(X, X), X < 5");
}

void BM_EquivalenceWithCollapse(benchmark::State& state) {
  Query a, b;
  Pair(static_cast<int>(state.range(0)), &a, &b);
  bool equivalent = false;
  for (auto _ : state) {
    EngineContext ctx;
    auto r = IsEquivalent(ctx, a, b);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    equivalent = r.ValueOr(false);
    benchmark::DoNotOptimize(equivalent);
  }
  state.counters["equivalent"] = equivalent ? 1 : 0;  // must be 1
}
BENCHMARK(BM_EquivalenceWithCollapse)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_EquivalenceNegative(benchmark::State& state) {
  // Almost-equal pair: the strict edge breaks the collapse.
  Query a = MustParseQuery(
      "q(X0) :- r(X0, X1), X0 <= X1, X1 < X0, X0 < 5");  // inconsistent
  Query b = MustParseQuery("q(X) :- r(X, X), X < 5");
  for (auto _ : state) {
    EngineContext ctx;
    auto r = IsEquivalent(ctx, a, b);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EquivalenceNegative);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
