// E11 (Section 5.2-5.3, Theorems 5.1/5.2): CQAC-SI containment via the
// Datalog reduction versus the general procedure.
//
// The reduction turns the containment of an SI query in a CQAC-SI query
// into CQ-in-Datalog containment (NP by Theorem 5.2). The bench runs both
// deciders on the Example 5.1 chain family as the chain grows and asserts
// they agree (even chains contained, odd chains not).
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/containment/containment.h"
#include "src/containment/si_reduction.h"
#include "src/gen/paper_workloads.h"

namespace cqac {
namespace {

void BM_SiReduction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Query q1 = workloads::Example51Q1();
  Query chain = workloads::Example51Chain(n, Rational(6), Rational(7));
  bool contained = false;
  for (auto _ : state) {
    EngineContext ctx;
    auto r = IsContainedSiReduction(ctx, chain, q1);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    contained = r.ValueOr(false);
  }
  state.counters["contained"] = contained ? 1 : 0;
  if (contained != (n % 2 == 0))
    state.SkipWithError("parity shape violated (Example 5.1)");
}
BENCHMARK(BM_SiReduction)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_GeneralContainmentSameInstances(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Query q1 = workloads::Example51Q1();
  Query chain = workloads::Example51Chain(n, Rational(6), Rational(7));
  bool contained = false;
  for (auto _ : state) {
    EngineContext ctx;
    auto r = IsContained(ctx, chain, q1);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    contained = r.ValueOr(false);
  }
  state.counters["contained"] = contained ? 1 : 0;
}
BENCHMARK(BM_GeneralContainmentSameInstances)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

void BM_QdatalogConstruction(benchmark::State& state) {
  Query q1 = workloads::Example51Q1();
  for (auto _ : state) {
    auto p = BuildQdatalog(q1);
    if (!p.ok()) state.SkipWithError(p.status().ToString().c_str());
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_QdatalogConstruction);

void BM_PcqConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Query q1 = workloads::Example51Q1();
  Query chain = workloads::Example51Chain(n, Rational(6), Rational(7));
  for (auto _ : state) {
    EngineContext ctx;
    auto p = BuildPcq(ctx, chain, q1);
    if (!p.ok()) state.SkipWithError(p.status().ToString().c_str());
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PcqConstruction)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
