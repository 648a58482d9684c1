// Incremental-vs-rebuild equivalence sweep for src/ivm.
//
// For each workload (chain / star / path view shapes) and seed, a random
// insert/retract stream is applied three ways — forced-incremental,
// forced-rebuild, and heuristic — and after every batch the full rendered
// state (base + views + a from-scratch MaterializeViews reference) must be
// byte-identical across the three paths and across thread counts 0/1/4/8.
// This is the determinism contract the benchmarks lean on: the maintained
// state never depends on the maintenance path or the scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/ivm/delta.h"
#include "src/ivm/maintain.h"

namespace cqac {
namespace {

constexpr size_t kThreadCounts[] = {0, 1, 4, 8};
constexpr uint64_t kSeeds[] = {7, 20260806};
constexpr int kSteps = 10;
constexpr int64_t kValues = 12;  // small value space => real join collisions

struct Workload {
  const char* name;
  std::vector<const char*> views;
  std::vector<const char*> predicates;  // base predicates the stream touches
};

const Workload kWorkloads[] = {
    {"chain",
     {"v2(X, Z) :- r(X, Y), s(Y, Z).", "v3(X, W) :- r(X, Y), s(Y, Z), t(Z, W)."},
     {"r", "s", "t"}},
    {"star",
     {"hub(X) :- r(X, Y), s(X, Z), t(X, W).", "guard(X, Y) :- r(X, Y), X <= Y."},
     {"r", "s", "t"}},
    {"path",
     {"p(X, Z) :- r(X, Y), r(Y, Z).", "loop(X) :- r(X, Y), r(Y, X)."},
     {"r"}},
};

enum class Mode { kIncremental, kRebuild, kHeuristic };

void Stage(Rng& rng, const Workload& w, const ivm::MaterializedViewSet& store,
           ivm::DeltaDatabase* delta) {
  const size_t batch = static_cast<size_t>(rng.Uniform(1, 6));
  for (size_t i = 0; i < batch; ++i) {
    const char* pred = w.predicates[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(w.predicates.size()) - 1))];
    const Relation& rel = store.base().Get(pred);
    if (!rel.empty() && rng.Chance(0.4)) {
      // Retract a currently-present tuple (uniform pick by rank).
      auto it = rel.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(rel.size()) - 1));
      ASSERT_TRUE(delta->StageRetract(pred, *it).ok());
    } else {
      Tuple t = {Value(rng.Uniform(0, kValues)), Value(rng.Uniform(0, kValues))};
      ASSERT_TRUE(delta->StageInsert(pred, std::move(t)).ok());
    }
  }
}

// Runs the full stream for one (workload, seed, mode, threads) cell and
// renders every intermediate state. The rendering doubles as the
// correctness check: it appends a from-scratch MaterializeViews of the
// current base, which must equal the maintained views verbatim.
std::string RunStream(const Workload& w, uint64_t seed, Mode mode,
                      size_t threads) {
  TaskPool pool(threads);
  EngineContext ctx;
  if (threads > 0) ctx.set_task_pool(&pool);

  ivm::MaterializedViewSet store;
  ViewSet views;
  std::vector<Query> view_queries;
  for (const char* v : w.views) {
    Query q = MustParseQuery(v);
    EXPECT_TRUE(views.Add(q).ok());
    EXPECT_TRUE(store.AddView(ctx, q).ok());
    view_queries.push_back(std::move(q));
  }

  ivm::MaintainOptions options;
  options.force_incremental = mode == Mode::kIncremental;
  options.force_rebuild = mode == Mode::kRebuild;

  Rng rng(seed);
  std::string out;
  for (int step = 0; step < kSteps; ++step) {
    ivm::DeltaDatabase delta(&store.base());
    Stage(rng, w, store, &delta);
    auto summary = store.Apply(ctx, delta, options);
    EXPECT_TRUE(summary.ok()) << summary.status();

    auto reference = MaterializeViews(ctx, views, store.base());
    EXPECT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(store.views().ToString(), reference.value().ToString())
        << w.name << " seed=" << seed << " step=" << step;

    // Cross-check the maintained state against the pre-columnar row-path
    // evaluator: count maintenance and batch materialization must land on
    // exactly the tuples the tuple-at-a-time oracle derives.
    for (const Query& q : view_queries) {
      auto row_path = EvaluateQueryReference(q, store.base());
      EXPECT_TRUE(row_path.ok()) << row_path.status();
      EXPECT_EQ(store.views().Get(q.head().predicate), row_path.value())
          << w.name << " seed=" << seed << " step=" << step
          << " view=" << q.head().predicate;
    }

    out += store.base().ToString();
    out += "\n--\n";
    out += store.views().ToString();
    out += "\n==\n";
  }
  return out;
}

TEST(IvmEquivalenceSweep, AllPathsAndThreadCountsAgreeByteForByte) {
  for (const Workload& w : kWorkloads) {
    for (uint64_t seed : kSeeds) {
      // Reference cell: serial, forced-incremental.
      const std::string reference =
          RunStream(w, seed, Mode::kIncremental, 0);
      ASSERT_FALSE(reference.empty());
      for (Mode mode :
           {Mode::kIncremental, Mode::kRebuild, Mode::kHeuristic}) {
        for (size_t threads : kThreadCounts) {
          if (mode == Mode::kIncremental && threads == 0) continue;
          EXPECT_EQ(RunStream(w, seed, mode, threads), reference)
              << w.name << " seed=" << seed << " mode="
              << static_cast<int>(mode) << " threads=" << threads;
        }
      }
    }
  }
}

// Single-fact streams are the serve/shell steady state; run a longer one
// against the DRed maintainer's counting sibling with interleaved
// single-tuple applies and verify exact agreement with from-scratch
// materialization at every step (covered above for batches; this pins the
// delta-size-1 fast path).
TEST(IvmEquivalenceSweep, SingleFactStreamStaysExact) {
  const Workload& w = kWorkloads[0];
  TaskPool pool(4);
  EngineContext ctx;
  ctx.set_task_pool(&pool);
  ivm::MaterializedViewSet store;
  ViewSet views;
  for (const char* v : w.views) {
    Query q = MustParseQuery(v);
    ASSERT_TRUE(views.Add(q).ok());
    ASSERT_TRUE(store.AddView(ctx, q).ok());
  }
  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;

  Rng rng(99);
  for (int step = 0; step < 60; ++step) {
    ivm::DeltaDatabase delta(&store.base());
    const char* pred = w.predicates[static_cast<size_t>(rng.Uniform(0, 2))];
    const Relation& rel = store.base().Get(pred);
    if (!rel.empty() && rng.Chance(0.35)) {
      auto it = rel.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(rel.size()) - 1));
      ASSERT_TRUE(delta.StageRetract(pred, *it).ok());
    } else {
      ASSERT_TRUE(delta
                      .StageInsert(pred, {Value(rng.Uniform(0, kValues)),
                                          Value(rng.Uniform(0, kValues))})
                      .ok());
    }
    auto summary = store.Apply(ctx, delta, incremental);
    ASSERT_TRUE(summary.ok()) << summary.status();
    auto reference = MaterializeViews(ctx, views, store.base());
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(store.views().ToString(), reference.value().ToString())
        << "step=" << step;
  }
}

}  // namespace
}  // namespace cqac
