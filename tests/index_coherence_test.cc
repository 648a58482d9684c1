// Coherence of the join indexes a Database owns (src/eval/column_index.h).
//
// A Database builds one ColumnIndex per probed (relation, column) on first
// probe and every mutating member patches it; nothing rebuilds one. This
// test drives a randomized stream of views, fact batches and retracts
// through MaterializedViewSet::Apply — including applies that abort after
// partial work and roll back (cancel and deadline, incremental and rebuild
// path), a RestoreSnapshot round trip with a moved-in base, a copied
// Database, and probes of a predicate before it has any tuples — and after
// every step checks that joins probing every column of every predicate
// return through EvaluateQuery / EvaluateUnion exactly what the index-free
// EvaluateQueryReference oracle returns. Each thread count starts from a
// fresh store, so at 8 threads first probes race inside pool tasks. A stale
// tuple pointer left behind by a rollback is a use-after-free here, which
// the sanitizer builds report.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/column_index.h"
#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/ivm/delta.h"
#include "src/ivm/maintain.h"

namespace cqac {
namespace {

constexpr size_t kThreadCounts[] = {0, 1, 4, 8};
constexpr int kSteps = 24;
constexpr int64_t kValues = 12;  // random tuples draw from [0, kValues]
// The random stream touches r, s, t and u. The links h(1..kHubLinks, kHub)
// to the hub g(kHub, _) give vhub more derivations than a join examines
// between two checkpoints (4096), which the aborted applies rely on.
const char* const kPredicates[] = {"r", "s", "t", "u"};
constexpr int64_t kHub = 100;
constexpr int kHubLinks = 4;
constexpr int kHubFanout = 1100;

// Views registered up front. `u` has no tuples until the stream adds some,
// so its first probe (in vu's materialization) sees an absent relation;
// vr drives the column probes over the view database.
const char* const kInitialViews[] = {
    "vr(X, Y) :- r(X, Y).",
    "vhub(X) :- h(X, Z), g(Z, Y).",
    "vu(X, Z) :- r(X, Y), u(Y, Z).",
};
// Views the stream adds along the way.
const char* const kLaterViews[] = {
    "v3(X, W) :- r(X, Y), s(Y, Z), t(Z, W).",
    "vstar(X) :- r(X, Y), t(X, Z), u(X, W).",
    "vself(X, Z) :- t(X, Y), t(Y, Z), X <= Z.",
    "vback(Y) :- s(X, Y), r(Y, X).",
};

/// Queries whose joins probe column `col` of `pred`: a column probe fed by
/// a scan of `outer`, and constant probes for a few random values and the
/// hub key.
void ProbeQueries(const std::string& outer, const std::string& pred,
                  size_t col, std::vector<Query>* column_probes,
                  std::vector<Query>* const_probes) {
  column_probes->push_back(MustParseQuery(
      col == 0 ? "q(A, B, C) :- " + outer + "(A, B), " + pred + "(B, C)."
               : "q(A, B, C) :- " + outer + "(A, B), " + pred + "(C, B)."));
  for (int64_t k : {int64_t{0}, int64_t{5}, kValues - 1, kHub}) {
    const std::string key = std::to_string(k);
    const_probes->push_back(MustParseQuery(
        col == 0 ? "k(Y) :- " + pred + "(" + key + ", Y)."
                 : "k(Y) :- " + pred + "(Y, " + key + ")."));
  }
}

Relation Reference(const std::vector<Query>& qs, const Database& db) {
  Relation out;
  for (const Query& q : qs) {
    Result<Relation> r = EvaluateQueryReference(q, db);
    EXPECT_TRUE(r.ok()) << r.status();
    if (r.ok()) out.insert(r.value().begin(), r.value().end());
  }
  return out;
}

/// Every probe query over `db` agrees with the oracle, evaluated one by one
/// in the written atom order (so the scan and the probed column are the
/// ones named) and as unions whose disjuncts run in parallel. `preds[0]`
/// drives the column probes of every binary predicate in `preds`;
/// `const_only` predicates get constant probes only.
void CheckProbes(EngineContext& ctx, const Database& db,
                 const std::vector<std::string>& preds,
                 const std::vector<std::string>& const_only,
                 const std::string& where) {
  EvalOptions syntactic;
  syntactic.join_order = EvalOptions::JoinOrder::kSyntactic;
  std::vector<std::string> all = preds;
  all.insert(all.end(), const_only.begin(), const_only.end());
  for (const std::string& pred : all) {
    for (size_t col = 0; col < 2; ++col) {
      UnionQuery column_probes, const_probes;
      ProbeQueries(preds[0], pred, col, &column_probes.disjuncts,
                   &const_probes.disjuncts);
      if (std::find(const_only.begin(), const_only.end(), pred) !=
          const_only.end())
        column_probes.disjuncts.clear();
      for (const UnionQuery* u : {&column_probes, &const_probes}) {
        if (u->empty()) continue;
        const Relation expected = Reference(u->disjuncts, db);
        Result<Relation> got = EvaluateUnion(ctx, *u, db);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(got.value(), expected) << where << " " << pred << "." << col;
      }
      for (const Query& q : column_probes.disjuncts) {
        Result<Relation> got = EvaluateQuery(ctx, q, db, syntactic);
        ASSERT_TRUE(got.ok()) << got.status();
        Result<Relation> expected = EvaluateQueryReference(q, db);
        ASSERT_TRUE(expected.ok()) << expected.status();
        EXPECT_EQ(got.value(), expected.value()) << where << " " << q.ToString();
      }
    }
  }
}

const std::vector<std::string>& BasePredicates() {
  static const std::vector<std::string> preds(std::begin(kPredicates),
                                              std::end(kPredicates));
  return preds;
}

void CheckStore(EngineContext& ctx, const ivm::MaterializedViewSet& store,
                const std::string& where) {
  CheckProbes(ctx, store.base(), BasePredicates(), {"h", "g"},
              where + " base");
  std::vector<std::string> binary_views, unary_views;
  for (const Query& v : store.view_queries()) {
    (v.head().args.size() == 2 ? binary_views : unary_views)
        .push_back(v.head().predicate);
    Result<Relation> expected = EvaluateQueryReference(v, store.base());
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(store.views().Get(v.head().predicate), expected.value())
        << where << " view " << v.head().predicate;
  }
  CheckProbes(ctx, store.views(), binary_views, unary_views, where + " views");
}

/// Stages a random batch of inserts and retracts over r, s, t and u.
void StageRandom(Rng& rng, const ivm::MaterializedViewSet& store,
                 ivm::DeltaDatabase* delta) {
  const int batch = static_cast<int>(rng.Uniform(1, 6));
  for (int i = 0; i < batch; ++i) {
    const char* pred = kPredicates[rng.Uniform(0, 3)];
    const Relation& rel = store.base().Get(pred);
    if (!rel.empty() && rng.Chance(0.4)) {
      auto it = rel.begin();
      std::advance(it, rng.Uniform(0, static_cast<int64_t>(rel.size()) - 1));
      ASSERT_TRUE(delta->StageRetract(pred, *it).ok());
    } else {
      ASSERT_TRUE(delta
                      ->StageInsert(pred, {Value(rng.Uniform(0, kValues)),
                                           Value(rng.Uniform(0, kValues))})
                      .ok());
    }
  }
}

/// An apply that must abort after partial work and leave the store as it
/// was: a join through the hub runs past the join's 4096-tuple
/// checkpoint. `kind` picks the path (bit 0: rebuild) and the stop (bit 1:
/// deadline instead of cancel).
void ApplyAborted(EngineContext& ctx, ivm::MaterializedViewSet& store,
                  Rng& rng, int kind) {
  const bool rebuild = (kind & 1) != 0;
  const bool by_deadline = (kind & 2) != 0;
  ivm::MaintainOptions options;
  options.force_incremental = !rebuild;
  options.force_rebuild = rebuild;

  ivm::DeltaDatabase delta(&store.base());
  if (rebuild) {
    // Aborts while re-materializing vhub, after the whole batch (random
    // changes and one more hub link) was committed to the base and vr was
    // re-materialized.
    StageRandom(rng, store, &delta);
    ASSERT_TRUE(delta.StageInsert("h", {Value(kHubLinks + 1), Value(kHub)}).ok());
  } else {
    // Aborts in the retract phase, after the removals were committed.
    for (int x = 1; x <= kHubLinks; ++x)
      ASSERT_TRUE(delta.StageRetract("h", {Value(x), Value(kHub)}).ok());
  }
  const std::string base_before = store.base().ToString();
  const std::string views_before = store.views().ToString();

  if (by_deadline)
    ctx.budget().deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
  else
    ctx.RequestCancel();
  Result<ivm::ApplySummary> applied = store.Apply(ctx, delta, options);
  ctx.budget().deadline.reset();
  ctx.ClearCancel();

  ASSERT_FALSE(applied.ok()) << "kind " << kind;
  EXPECT_EQ(applied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.base().ToString(), base_before) << "kind " << kind;
  EXPECT_EQ(store.views().ToString(), views_before) << "kind " << kind;
}

std::string RunStream(size_t threads, uint64_t seed) {
  TaskPool pool(threads);
  EngineContext ctx;
  if (threads > 0) ctx.set_task_pool(&pool);
  const std::string cell =
      "threads=" + std::to_string(threads) + " seed=" + std::to_string(seed);

  ivm::MaterializedViewSet store;
  for (const char* v : kInitialViews)
    EXPECT_TRUE(store.AddView(ctx, MustParseQuery(v)).ok());
  // Probes of every column before any tuple exists.
  CheckStore(ctx, store, cell + " empty");

  Database initial;
  for (int i = 0; i < kHubFanout; ++i)
    EXPECT_TRUE(initial.Insert("g", {Value(kHub), Value(1000 + i)}).ok());
  for (int x = 1; x <= kHubLinks; ++x)
    EXPECT_TRUE(initial.Insert("h", {Value(x), Value(kHub)}).ok());
  Rng rng(seed);
  for (int i = 0; i < 24; ++i)
    EXPECT_TRUE(initial
                    .Insert(kPredicates[rng.Uniform(0, 2)],
                            {Value(rng.Uniform(0, kValues)),
                             Value(rng.Uniform(0, kValues))})
                    .ok());
  EXPECT_TRUE(store.ApplyInsert(ctx, initial).ok());
  CheckStore(ctx, store, cell + " initial");

  size_t next_view = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::string where = cell + " step=" + std::to_string(step);
    if (step % 5 == 4) {
      ApplyAborted(ctx, store, rng, step / 5);
    } else if (step % 5 == 1 && next_view < std::size(kLaterViews)) {
      EXPECT_TRUE(
          store.AddView(ctx, MustParseQuery(kLaterViews[next_view++])).ok());
    } else if (step == kSteps / 2) {
      // Round trip through RestoreSnapshot. The restored base is a copy
      // (no indexes) that gets probed, and so indexed, before it is moved
      // in: the move must carry those indexes along intact.
      Database base = store.base();
      CheckProbes(ctx, base, BasePredicates(), {"h", "g"}, where + " copy");
      ivm::MaterializedViewSet restored;
      EXPECT_TRUE(restored
                      .RestoreSnapshot(std::move(base), store.view_queries(),
                                       store.counts(), store.views(),
                                       store.maintained())
                      .ok());
      store = std::move(restored);
    } else {
      ivm::MaintainOptions options;
      options.force_incremental = step % 3 == 0;
      options.force_rebuild = step % 3 == 1;
      ivm::DeltaDatabase delta(&store.base());
      StageRandom(rng, store, &delta);
      Result<ivm::ApplySummary> applied = store.Apply(ctx, delta, options);
      EXPECT_TRUE(applied.ok()) << applied.status();
    }
    CheckStore(ctx, store, where);
  }

  // A copy is indexed on its own: mutating the original leaves it exact.
  Database copy = store.base();
  CheckProbes(ctx, copy, BasePredicates(), {"h", "g"}, cell + " copy");
  ivm::DeltaDatabase delta(&store.base());
  StageRandom(rng, store, &delta);
  EXPECT_TRUE(store.Apply(ctx, delta).ok());
  CheckProbes(ctx, copy, BasePredicates(), {"h", "g"}, cell + " copy after");
  CheckStore(ctx, store, cell + " final");
  return store.base().ToString() + "\n--\n" + store.views().ToString();
}

TEST(IndexCoherenceTest, ProbesMatchTheOracleThroughTheWholeStream) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{20261017}}) {
    const std::string serial = RunStream(0, seed);
    for (size_t threads : kThreadCounts) {
      if (threads == 0) continue;
      EXPECT_EQ(RunStream(threads, seed), serial) << "threads=" << threads;
    }
  }
}

// A patched index holds exactly what a fresh build over the same relation
// holds, in the same order. Column 0 draws from a wide domain, so keys come
// and go and the packed array is compacted; column 1 from a narrow one, so
// groups outgrow their ranges and move. Symbols and fractions exercise the
// Value-keyed side.
TEST(IndexCoherenceTest, PatchedIndexEqualsAFreshBuild) {
  Rng rng(11);
  auto random_value = [&](int64_t domain) -> Value {
    switch (rng.Uniform(0, 9)) {
      case 0:
        return Value(std::string(1, static_cast<char>('a' + rng.Uniform(0, 3))));
      case 1:
        return Value(Rational(rng.Uniform(0, 7), 2));
      default:
        return Value(rng.Uniform(0, domain));
    }
  };
  Database db;
  const ColumnIndex& by_first = db.Index("p", 0);
  const ColumnIndex& by_second = db.Index("p", 1);
  for (int step = 0; step < 40000; ++step) {
    Tuple t = {random_value(3000), random_value(5)};
    if (rng.Chance(0.5))
      db.Remove("p", t);
    else
      ASSERT_TRUE(db.Insert("p", std::move(t)).ok());
    if (step % 5000 != 4999) continue;
    for (size_t col = 0; col < 2; ++col) {
      const ColumnIndex& patched = col == 0 ? by_first : by_second;
      const ColumnIndex fresh(db.Get("p"), col);
      size_t seen = 0;
      for (const Tuple& stored : db.Get("p")) {
        const ColumnIndex::Hits want = fresh.Probe(stored[col]);
        const ColumnIndex::Hits got = patched.Probe(stored[col]);
        ASSERT_EQ(std::vector<const Tuple*>(got.begin(), got.end()),
                  std::vector<const Tuple*>(want.begin(), want.end()))
            << "step " << step << " col " << col;
        ++seen;
      }
      EXPECT_EQ(seen, db.Get("p").size());
      for (int64_t absent : {int64_t{-1}, int64_t{3001}})
        EXPECT_EQ(patched.ProbeInt(absent).size, 0u);
    }
  }
}

// The lifetime rules of Database-owned indexes: erasing a relation drops
// its indexes, a copy (constructed or assigned) builds its own, and a move
// carries them along.
TEST(IndexCoherenceTest, IndexesFollowTheirRelations) {
  Database db;
  ASSERT_TRUE(db.Insert("p", {Value(1), Value(2)}).ok());
  bool built = false;
  EXPECT_EQ(db.Index("p", 0, &built).ProbeInt(1).size, 1u);
  EXPECT_TRUE(built);
  db.EraseRelation("p");
  EXPECT_EQ(db.Index("p", 0).ProbeInt(1).size, 0u);
  ASSERT_TRUE(db.Insert("p", {Value(1), Value(3)}).ok());
  ColumnIndex::Hits hits = db.Index("p", 0, &built).ProbeInt(1);
  ASSERT_EQ(hits.size, 1u);
  EXPECT_EQ(*hits.data[0], Tuple({Value(1), Value(3)}));

  Database copy = db;
  EXPECT_EQ(copy.Index("p", 0, &built).ProbeInt(1).size, 1u);
  EXPECT_TRUE(built);
  EXPECT_EQ(*copy.Index("p", 0).ProbeInt(1).data[0], *hits.data[0]);
  EXPECT_NE(copy.Index("p", 0).ProbeInt(1).data[0], hits.data[0]);
  Database assigned;
  ASSERT_TRUE(assigned.Insert("p", {Value(1), Value(4)}).ok());
  (void)assigned.Index("p", 0);
  assigned = db;
  EXPECT_EQ(*assigned.Index("p", 0, &built).ProbeInt(1).data[0],
            Tuple({Value(1), Value(3)}));
  EXPECT_TRUE(built);

  const Tuple* stored = hits.data[0];
  Database moved = std::move(db);
  EXPECT_EQ(moved.Index("p", 0, &built).ProbeInt(1).data[0], stored);
  EXPECT_FALSE(built);
}

// eval_index_builds counts the indexes a Database builds on first probe:
// a repeat of the same queries builds none, and the count is the same at
// every thread count (the fan-out chunks are bare relations, and a leading
// constant probes the Database's index before the candidates are dealt).
TEST(IndexCoherenceTest, IndexBuildsAreCountedOncePerDatabaseColumn) {
  Database db;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Insert("a", {Value(i % 7), Value(i)}).ok());
    ASSERT_TRUE(db.Insert("b", {Value(i), Value(i % 11)}).ok());
  }
  const std::vector<Query> queries = {
      MustParseQuery("q(X, Z) :- a(X, Y), b(Y, Z), X < 3."),
      MustParseQuery("q(Y, Z) :- a(3, Y), b(Y, Z)."),
      MustParseQuery("q(X, Y) :- b(X, 5), a(Y, X)."),
  };
  uint64_t serial_builds = 0;
  for (size_t threads : kThreadCounts) {
    TaskPool pool(threads);
    EngineContext ctx;
    if (threads > 0) ctx.set_task_pool(&pool);
    Database fresh = db;  // a copy starts with no indexes
    for (const Query& q : queries) {
      Result<Relation> got = EvaluateQuery(ctx, q, fresh);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value(), EvaluateQueryReference(q, fresh).value());
    }
    const uint64_t builds = ctx.stats().eval_index_builds;
    EXPECT_GT(builds, 0u);
    if (threads == 0) serial_builds = builds;
    EXPECT_EQ(builds, serial_builds) << "threads=" << threads;
    for (const Query& q : queries) ASSERT_TRUE(EvaluateQuery(ctx, q, fresh).ok());
    EXPECT_EQ(uint64_t{ctx.stats().eval_index_builds}, builds)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace cqac
