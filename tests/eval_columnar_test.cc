// Differential tests for the columnar batch join engine: EvaluateQuery
// (serial in written order, and fanned out) must match the pre-columnar
// tuple-at-a-time EvaluateQueryReference byte-for-byte at every thread
// count, including on inputs that defeat the small-integer column fast path
// (non-integral rationals, symbols, magnitudes near INT64_MAX).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

constexpr size_t kThreadCounts[] = {0, 1, 4, 8};

std::string RenderRelation(const Relation& r) {
  std::string out;
  for (const Tuple& t : r) {
    out += "(";
    for (size_t i = 0; i < t.size(); ++i)
      out += StrCat(i ? "," : "", t[i].ToString());
    out += ")";
  }
  return out;
}

// Batch path vs row path, serial and at each pool size.
void ExpectMatchesReference(const Query& q, const Database& db,
                            const std::string& what) {
  Result<Relation> ref = EvaluateQueryReference(q, db);
  ASSERT_TRUE(ref.ok()) << what << ": " << ref.status().ToString();
  const std::string expected = RenderRelation(ref.value());

  // The plain join: serial (no pool) and in the written atom order.
  EngineContext serial;
  Result<Relation> plain = EvaluateQuery(
      serial, q, db, EvalOptions{EvalOptions::JoinOrder::kSyntactic});
  ASSERT_TRUE(plain.ok()) << what << ": " << plain.status().ToString();
  EXPECT_EQ(RenderRelation(plain.value()), expected) << what << " (plain)";

  for (size_t threads : kThreadCounts) {
    TaskPool pool(threads);
    EngineContext ctx;
    ctx.set_task_pool(&pool);
    Result<Relation> got = EvaluateQuery(ctx, q, db);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    EXPECT_EQ(RenderRelation(got.value()), expected)
        << what << " diverged at threads=" << threads;
  }
}

TEST(EvalColumnarTest, RandomizedSweepMatchesReference) {
  for (uint64_t seed : {1u, 7u, 19u, 42u, 101u, 2026u}) {
    Rng rng(seed);
    gen::QuerySpec qspec;
    qspec.num_subgoals = 1 + static_cast<int>(seed % 3);
    qspec.num_vars = 4;
    qspec.ac_mode = seed % 2 ? gen::AcMode::kGeneral : gen::AcMode::kLsi;
    qspec.ac_density = 0.8;
    Query q = gen::RandomQuery(rng, qspec);
    gen::DatabaseSpec dspec;
    dspec.tuples_per_relation = 120;
    Database db = gen::RandomDatabase(rng, gen::SchemaOf(q), dspec);
    ExpectMatchesReference(q, db, StrCat("seed=", seed, " q=", q.ToString()));
  }
}

TEST(EvalColumnarTest, RecordsBatchAndFallbackStats) {
  Query q = MustParseQuery("q(X, Y) :- r(X, Z), s(Z, Y), X <= Y");
  Database db;
  for (int64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(db.Insert("r", {Value(Rational(i)), Value(Rational(i % 8))}).ok());
    ASSERT_TRUE(db.Insert("s", {Value(Rational(i % 8)), Value(Rational(i))}).ok());
  }
  // A non-integral rational forces the s-value column off the int fast path.
  ASSERT_TRUE(db.Insert("s", {Value(Rational(3)), Value(Rational(7, 2))}).ok());

  TaskPool pool(0);
  EngineContext ctx;
  ctx.set_task_pool(&pool);
  Result<Relation> got = EvaluateQuery(ctx, q, db);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(uint64_t{ctx.stats().eval_batches}, 0u);
  EXPECT_GT(uint64_t{ctx.stats().eval_smallint_fallbacks}, 0u);
  ExpectMatchesReference(q, db, "stats workload");
}

TEST(EvalColumnarTest, NonIntegralRationalComparisons) {
  Query q = MustParseQuery("q(X, Y) :- r(X), s(Y), X < Y");
  Database db;
  // Mixed integral and fractional values around the same magnitudes, so the
  // vectorized < filter must fall back to exact arithmetic for the
  // fractional rows while keeping the integral rows on the i64 path.
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("r", {Value(Rational(i))}).ok());
    ASSERT_TRUE(db.Insert("r", {Value(Rational(2 * i + 1, 2))}).ok());
    ASSERT_TRUE(db.Insert("s", {Value(Rational(i))}).ok());
    ASSERT_TRUE(db.Insert("s", {Value(Rational(2 * i + 1, 3))}).ok());
  }
  ExpectMatchesReference(q, db, "non-integral rationals");
}

TEST(EvalColumnarTest, ExtremeMagnitudesStayExact) {
  // Cross-multiplication comparing i64 against a rational must not overflow:
  // these magnitudes would wrap any naive 64-bit product.
  Query q = MustParseQuery("q(X, Y) :- r(X), s(Y), X < Y");
  const int64_t kBig = INT64_MAX - 1;
  Database db;
  ASSERT_TRUE(db.Insert("r", {Value(Rational(kBig))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(Rational(-kBig))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(Rational(kBig, 3))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(kBig))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(kBig - 1))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(-kBig, 7))}).ok());
  ExpectMatchesReference(q, db, "extreme magnitudes");
}

TEST(EvalColumnarTest, SymbolsMixWithNumbers) {
  Query q = MustParseQuery("q(X, Y) :- r(X, Y), s(Y)");
  Database db;
  ASSERT_TRUE(db.Insert("r", {Value(Rational(1)), Value(std::string("a"))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(Rational(2)), Value(Rational(3))}).ok());
  ASSERT_TRUE(db.Insert("r", {Value(std::string("b")), Value(Rational(3))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(std::string("a"))}).ok());
  ASSERT_TRUE(db.Insert("s", {Value(Rational(3))}).ok());
  ExpectMatchesReference(q, db, "symbol/number mix");
}

TEST(EvalColumnarTest, QueryYieldsTupleAgreesWithFullEvaluation) {
  Rng rng(77);
  gen::QuerySpec qspec;
  qspec.num_subgoals = 2;
  qspec.num_vars = 4;
  qspec.ac_density = 0.5;
  Query q = gen::RandomQuery(rng, qspec);
  gen::DatabaseSpec dspec;
  dspec.tuples_per_relation = 60;
  Database db = gen::RandomDatabase(rng, gen::SchemaOf(q), dspec);

  Result<Relation> full = EvaluateQueryReference(q, db);
  ASSERT_TRUE(full.ok());
  EngineStats stats;
  size_t checked = 0;
  for (const Tuple& t : full.value()) {
    Result<bool> hit = QueryYieldsTuple(q, db, t, &stats);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value()) << TupleToString(t);
    if (++checked >= 10) break;
  }
  if (!full.value().empty()) {
    // Perturb a result tuple until it is not a result, then expect a miss.
    Tuple miss = *full.value().begin();
    do {
      miss[0] = Value(Rational(rng.Uniform(5000, 6000)));
    } while (full.value().count(miss));
    Result<bool> hit = QueryYieldsTuple(q, db, miss, &stats);
    ASSERT_TRUE(hit.ok());
    EXPECT_FALSE(hit.value());
  }
}

}  // namespace
}  // namespace cqac
