// E1 (Table 1): containment-test cost by comparison class.
//
// Table 1 of the paper summarizes which query/view classes admit which
// complexity: containment is NP for CQ and LSI/RSI (single containment
// mapping, Theorems 2.2/2.3) but needs the Pi-2-p disjunction test for
// general ACs (Theorem 2.1). This bench regenerates that separation as
// running time on chain queries of growing length: the single-mapping
// classes stay flat-ish, the general class pays for disjunction refutation.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

// A chain query e(C0,C1),...,e(Cn-1,Cn) with class-dependent comparisons.
Query Chain(int n, const std::string& cls) {
  std::vector<std::string> items;
  for (int i = 0; i < n; ++i)
    items.push_back(StrCat("e(C", i, ", C", i + 1, ")"));
  if (cls == "lsi") {
    items.push_back("C0 < 10");
    items.push_back(StrCat("C", n, " <= 8"));
  } else if (cls == "si") {
    items.push_back("C0 > 5");
    items.push_back(StrCat("C", n, " < 8"));
  } else if (cls == "general") {
    items.push_back(StrCat("C0 < C", n));
    items.push_back("C0 > 5");
    items.push_back(StrCat("C", n, " < 8"));
  }
  return MustParseQuery(StrCat("q() :- ", Join(items, ", ")));
}

void BM_ContainmentByClass(benchmark::State& state,
                           const std::string& cls) {
  const int n = static_cast<int>(state.range(0));
  Query small = Chain(2, cls);
  Query big = Chain(n, cls);
  size_t contained = 0;
  for (auto _ : state) {
    EngineContext ctx;
    auto r = IsContained(ctx, big, small);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    contained += r.ValueOr(false) ? 1 : 0;
    benchmark::DoNotOptimize(contained);
  }
  state.counters["contained"] =
      static_cast<double>(contained) / state.iterations();
  state.counters["subgoals"] = n;
}

void RegisterAll() {
  for (const char* cls : {"cq", "lsi", "si", "general"}) {
    auto* b = benchmark::RegisterBenchmark(
        StrCat("BM_Containment/", cls).c_str(),
        [cls](benchmark::State& s) { BM_ContainmentByClass(s, cls); });
    for (int n : {2, 4, 6, 8, 10, 12}) b->Arg(n);
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
