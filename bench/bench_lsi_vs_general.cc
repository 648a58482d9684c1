// E6 (Theorem 2.3 vs Theorem 2.1): the single-mapping fast path.
//
// Theorem 2.3 licenses deciding containment in an LSI query with ONE
// containment mapping instead of the disjunction over all mappings. The
// bench runs both procedures on identical LSI pairs (their answers are
// asserted to agree) and reports the time each needs — the "who wins" shape
// is fast path <= general, with the gap widening as mappings multiply.
#include <benchmark/benchmark.h>

#include "bench/bench_threads.h"

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/gen/generators.h"

namespace cqac {
namespace {

// Pairs of random LSI queries over the same schema (so mappings exist).
std::pair<Query, Query> DrawPair(int subgoals, uint64_t seed) {
  Rng rng(seed);
  gen::QuerySpec spec;
  spec.num_subgoals = subgoals;
  spec.num_predicates = 1;  // one predicate maximizes mapping count
  spec.num_vars = subgoals + 1;
  spec.ac_density = 0.8;
  spec.ac_mode = gen::AcMode::kLsi;
  spec.boolean_head = true;
  Query a = gen::RandomQuery(rng, spec);
  Query b = gen::RandomQuery(rng, spec);
  return {a, b};
}

void Run(benchmark::State& state, bool fast_path) {
  const int n = static_cast<int>(state.range(0));
  std::vector<std::pair<Query, Query>> pairs;
  for (uint64_t s = 0; s < 8; ++s) pairs.push_back(DrawPair(n, 100 + s));

  ContainmentOptions opts;
  opts.use_single_mapping_fast_path = fast_path;
  ContainmentOptions other = opts;
  other.use_single_mapping_fast_path = !fast_path;

  // Agreement check before the timed loop.
  for (const auto& [a, b] : pairs) {
    EngineContext x_ctx, y_ctx;
    auto x = IsContained(x_ctx, a, b, opts);
    auto y = IsContained(y_ctx, a, b, other);
    if (x.ok() && y.ok() && x.value() != y.value()) {
      state.SkipWithError("fast path disagrees with the general procedure");
      return;
    }
  }
  size_t contained = 0;
  for (auto _ : state) {
    for (const auto& [a, b] : pairs) {
      EngineContext ctx;
      auto r = IsContained(ctx, a, b, opts);
      if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
      contained += r.ValueOr(false) ? 1 : 0;
    }
  }
  state.counters["pairs"] = 8;
}

void BM_LsiFastPath(benchmark::State& state) { Run(state, true); }
void BM_GeneralProcedure(benchmark::State& state) { Run(state, false); }

BENCHMARK(BM_LsiFastPath)->Arg(2)->Arg(3)->Arg(4)->Arg(5);
BENCHMARK(BM_GeneralProcedure)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN()
