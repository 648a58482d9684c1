// E16: incremental view maintenance (src/ivm) vs full rebuild.
//
// The headline claim: a single-fact insert against a large materialized join
// view set must be at least an order of magnitude cheaper than rebuilding
// the materialization — the counting maintainer's pivot joins touch O(delta)
// base tuples, the rebuild touches all of them. The `speedup` counter
// records the measured ratio directly.
//
// Also measured: the batch-size sweep that locates the incremental/rebuild
// crossover (and records which path the default heuristic picks at each
// size).
//
// Run at --threads 0 / 4 / 8: Apply fans delta chunks out over the
// context's pool, and the maintained state is byte-identical at every
// thread count (tests/ivm_equivalence_test.cc proves that; this file
// measures it). Results also land in BENCH_ivm.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <string>

#include "bench/bench_threads.h"
#include "src/analysis/audit/audit.h"
#include "src/base/rng.h"
#include "src/eval/database.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/ivm/maintain.h"

namespace cqac {
namespace {

// Two join views plus a comparison-guarded one: enough shape that a rebuild
// pays real join cost, while a one-tuple delta pivots through tiny joins.
const char* kViewRules[] = {
    "v_join(X, Y) :- r(X, Z), s(Z, Y).",
    "v_band(X, Y) :- r(X, Y), X <= Y.",
    "v_tri(X, Y) :- r(X, Z), s(Z, W), t(W, Y).",
};

const std::map<std::string, int> kSchema = {{"r", 2}, {"s", 2}, {"t", 2}};

// A store materialized over a random base of `tuples` rows per relation.
// Values are drawn from a range proportional to the relation size, keeping
// join selectivity (and thus view size) roughly scale-free.
ivm::MaterializedViewSet MakeStore(EngineContext& ctx, size_t tuples) {
  Rng rng(20260806);
  gen::DatabaseSpec spec;
  spec.tuples_per_relation = tuples;
  spec.value_min = 0;
  spec.value_max = static_cast<int64_t>(tuples);
  Database base = gen::RandomDatabase(rng, kSchema, spec);
  ivm::MaterializedViewSet store;
  for (const char* rule : kViewRules) {
    Status st = store.AddView(ctx, MustParseQuery(rule));
    if (!st.ok()) std::abort();
  }
  if (!store.ApplyInsert(ctx, base).ok()) std::abort();
  return store;
}

Database OneFact(const char* pred, int64_t a, int64_t b) {
  Database db;
  db.Insert(pred, {Value(a), Value(b)});
  return db;
}

// One throwaway incremental round so the timed loop measures steady state:
// the first incremental apply pays for building any base index the
// materialization did not probe, which is one-time setup, not per-fact
// maintenance cost.
void WarmIncremental(EngineContext& ctx, ivm::MaterializedViewSet& store) {
  const plan::IvmPath incremental = plan::IvmPath::kIncremental;
  Database fact = OneFact("r", -1, -1);
  if (!store.ApplyInsert(ctx, fact, incremental).ok()) std::abort();
  if (!store.ApplyRetract(ctx, fact, incremental).ok()) std::abort();
}

// ---- single-fact insert: incremental vs rebuild ---------------------------

void BM_IvmSingleInsertVsRebuild(benchmark::State& state) {
  const size_t kTuples = static_cast<size_t>(state.range(0));
  EngineContext ctx;
  bench::AttachPool(ctx);
  ivm::MaterializedViewSet store = MakeStore(ctx, kTuples);
  WarmIncremental(ctx, store);

  const plan::IvmPath incremental = plan::IvmPath::kIncremental;
  const plan::IvmPath rebuild = plan::IvmPath::kRebuild;

  double inc_total = 0, reb_total = 0;
  int64_t rounds = 0;
  // In-range values so the inserted fact genuinely joins; distinct per round
  // so every apply is a real state change.
  int64_t v = 1;
  for (auto _ : state) {
    Database fact = OneFact("r", v, (v + 7) % static_cast<int64_t>(kTuples));
    inc_total += bench::TimeOnceMs([&] {
      if (!store.ApplyInsert(ctx, fact, incremental).ok()) std::abort();
    });
    // Undo outside the timed regions to keep every round's base the same
    // size (retract cost is symmetric and measured separately below).
    if (!store.ApplyRetract(ctx, fact, incremental).ok()) std::abort();
    reb_total += bench::TimeOnceMs([&] {
      if (!store.ApplyInsert(ctx, fact, rebuild).ok()) std::abort();
    });
    if (!store.ApplyRetract(ctx, fact, incremental).ok()) std::abort();
    v += 13;
    ++rounds;
  }
  state.counters["incremental_ms"] = inc_total / static_cast<double>(rounds);
  state.counters["rebuild_ms"] = reb_total / static_cast<double>(rounds);
  state.counters["speedup"] = inc_total > 0 ? reb_total / inc_total : 0;
  state.counters["base_tuples"] = static_cast<double>(store.base().TotalTuples());
  state.counters["view_tuples"] =
      static_cast<double>(store.views().TotalTuples());
  bench::RecordParallelCounters(state, ctx);
}
BENCHMARK(BM_IvmSingleInsertVsRebuild)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

// ---- single-fact retract ---------------------------------------------------

void BM_IvmSingleRetract(benchmark::State& state) {
  const size_t kTuples = static_cast<size_t>(state.range(0));
  EngineContext ctx;
  bench::AttachPool(ctx);
  ivm::MaterializedViewSet store = MakeStore(ctx, kTuples);
  WarmIncremental(ctx, store);
  const plan::IvmPath incremental = plan::IvmPath::kIncremental;
  int64_t v = 3;
  for (auto _ : state) {
    state.PauseTiming();
    Database fact = OneFact("s", v, (v + 5) % static_cast<int64_t>(kTuples));
    if (!store.ApplyInsert(ctx, fact, incremental).ok()) std::abort();
    state.ResumeTiming();
    if (!store.ApplyRetract(ctx, fact, incremental).ok()) std::abort();
    v += 11;
  }
  state.counters["base_tuples"] = static_cast<double>(store.base().TotalTuples());
  bench::RecordParallelCounters(state, ctx);
}
BENCHMARK(BM_IvmSingleRetract)->Arg(2000)->Unit(benchmark::kMillisecond);

// ---- batch-size sweep: where is the crossover? ----------------------------

void BM_IvmBatchSweep(benchmark::State& state) {
  const size_t kTuples = 4000;
  const size_t kDelta = static_cast<size_t>(state.range(0));
  EngineContext ctx;
  bench::AttachPool(ctx);
  ivm::MaterializedViewSet store = MakeStore(ctx, kTuples);
  WarmIncremental(ctx, store);

  const plan::IvmPath incremental = plan::IvmPath::kIncremental;
  const plan::IvmPath rebuild = plan::IvmPath::kRebuild;

  double inc_total = 0, reb_total = 0;
  int64_t rounds = 0;
  bool heuristic_incremental = false;
  int64_t v = 1;
  for (auto _ : state) {
    Database batch;
    for (size_t i = 0; i < kDelta; ++i) {
      batch.Insert("r", {Value(v), Value((v + 3) % static_cast<int64_t>(
                                       kTuples))});
      v += 2;
    }
    inc_total += bench::TimeOnceMs([&] {
      if (!store.ApplyInsert(ctx, batch, incremental).ok()) std::abort();
    });
    if (!store.ApplyRetract(ctx, batch, incremental).ok()) std::abort();
    reb_total += bench::TimeOnceMs([&] {
      if (!store.ApplyInsert(ctx, batch, rebuild).ok()) std::abort();
    });
    // Let the default heuristic pick a path for the retract and record its
    // choice: small deltas must stay incremental, huge ones may rebuild.
    if (!store.ApplyRetract(ctx, batch).ok()) std::abort();
    heuristic_incremental = store.maintained();
    ++rounds;
  }
  state.counters["incremental_ms"] = inc_total / static_cast<double>(rounds);
  state.counters["rebuild_ms"] = reb_total / static_cast<double>(rounds);
  state.counters["speedup"] = inc_total > 0 ? reb_total / inc_total : 0;
  state.counters["delta_tuples"] = static_cast<double>(kDelta);
  state.counters["heuristic_incremental"] = heuristic_incremental ? 1 : 0;
  bench::RecordParallelCounters(state, ctx);
}
BENCHMARK(BM_IvmBatchSweep)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// ---- certified apply: maintenance plus the independent audit replay -------

// The price of certainty: each insert emits a MaintenanceCertificate
// (O(state) snapshotting inside Apply) and the auditor replays it against a
// from-scratch reference evaluation. `audit_overhead` is the ratio of audit
// time to apply time; the audit_* counters land in BENCH_ivm.json so CI can
// watch the certification cost alongside the maintenance cost.
void BM_IvmCertifiedApply(benchmark::State& state) {
  const size_t kTuples = static_cast<size_t>(state.range(0));
  EngineContext ctx;
  bench::AttachPool(ctx);
  ivm::MaterializedViewSet store = MakeStore(ctx, kTuples);
  WarmIncremental(ctx, store);
  const plan::IvmPath incremental = plan::IvmPath::kIncremental;

  double apply_total = 0, audit_total = 0;
  int64_t rounds = 0;
  int64_t v = 5;
  for (auto _ : state) {
    Database fact = OneFact("r", v, (v + 9) % static_cast<int64_t>(kTuples));
    ivm::MaintenanceCertificate cert;
    apply_total += bench::TimeOnceMs([&] {
      if (!store.ApplyInsert(ctx, fact, incremental, &cert).ok())
        std::abort();
    });
    audit_total += bench::TimeOnceMs([&] {
      Status st = audit::CheckMaintenance(ctx, store.view_queries(), cert,
                                          store.base(), store.views());
      if (!st.ok()) std::abort();
    });
    if (!store.ApplyRetract(ctx, fact, incremental).ok()) std::abort();
    v += 17;
    ++rounds;
  }
  state.counters["apply_ms"] = apply_total / static_cast<double>(rounds);
  state.counters["audit_ms"] = audit_total / static_cast<double>(rounds);
  state.counters["audit_overhead"] =
      apply_total > 0 ? audit_total / apply_total : 0;
  state.counters["audit_replayed_tuples"] =
      static_cast<double>(uint64_t{ctx.stats().audit_replayed_tuples});
  state.counters["audit_failures"] =
      static_cast<double>(uint64_t{ctx.stats().audit_failures});
  bench::RecordParallelCounters(state, ctx);
}
BENCHMARK(BM_IvmCertifiedApply)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN_WITH_JSON("ivm")
