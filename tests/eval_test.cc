#include "src/eval/evaluate.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

Database Db(const std::string& facts) {
  auto r = Database::FromFacts(facts);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOr(Database());
}

TEST(DatabaseTest, InsertAndGet) {
  Database db = Db("r(1, 2). r(2, 3). s(1).");
  EXPECT_EQ(db.Get("r").size(), 2u);
  EXPECT_EQ(db.Get("s").size(), 1u);
  EXPECT_EQ(db.Get("missing").size(), 0u);
  EXPECT_EQ(db.TotalTuples(), 3u);
}

TEST(DatabaseTest, ArityMismatchRejected) {
  Database db;
  ASSERT_TRUE(db.Insert("r", {Value(Rational(1))}).ok());
  EXPECT_FALSE(db.Insert("r", {Value(Rational(1)), Value(Rational(2))}).ok());
}

TEST(DatabaseTest, FromFactsRejectsRulesAndVariables) {
  EXPECT_FALSE(Database::FromFacts("r(X).").ok());
  EXPECT_FALSE(Database::FromFacts("r(1) :- s(1).").ok());
}

TEST(DatabaseTest, SymbolValues) {
  Database db = Db("color(1, red). color(2, blue).");
  EXPECT_EQ(db.Get("color").size(), 2u);
}

TEST(EvaluateTest, SimpleJoin) {
  EngineContext ctx;
  Database db = Db("r(1, 2). r(2, 3). s(2, 10). s(3, 20).");
  auto res =
      EvaluateQuery(ctx, MustParseQuery("q(X, W) :- r(X, Y), s(Y, W)"), db);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().size(), 2u);
  EXPECT_TRUE(res.value().count({Value(Rational(1)), Value(Rational(10))}));
  EXPECT_TRUE(res.value().count({Value(Rational(2)), Value(Rational(20))}));
}

TEST(EvaluateTest, ComparisonsFilter) {
  EngineContext ctx;
  Database db = Db("r(1). r(3). r(5).");
  auto res = EvaluateQuery(ctx, MustParseQuery("q(X) :- r(X), X < 4"), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().size(), 2u);
  auto res2 = EvaluateQuery(ctx, MustParseQuery("q(X) :- r(X), X <= 3, X >= 3"),
                            db);
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2.value().size(), 1u);
}

TEST(EvaluateTest, VarVarComparison) {
  EngineContext ctx;
  Database db = Db("e(1, 2). e(2, 1). e(3, 3).");
  auto res =
      EvaluateQuery(ctx, MustParseQuery("q(X, Y) :- e(X, Y), X < Y"), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().size(), 1u);
  auto res_le = EvaluateQuery(ctx, MustParseQuery("q(X, Y) :- e(X, Y), X <= Y"),
                              db);
  ASSERT_TRUE(res_le.ok());
  EXPECT_EQ(res_le.value().size(), 2u);
}

TEST(EvaluateTest, ConstantsInAtoms) {
  EngineContext ctx;
  Database db = Db("color(1, red). color(2, blue).");
  auto res = EvaluateQuery(ctx, MustParseQuery("q(C) :- color(C, red)"), db);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value().size(), 1u);
  EXPECT_TRUE(res.value().count({Value(Rational(1))}));
}

TEST(EvaluateTest, SymbolsNeverOrdered) {
  EngineContext ctx;
  Database db = Db("color(1, red).");
  auto res = EvaluateQuery(ctx, MustParseQuery("q(C) :- color(C, V), V = red"),
                           db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().size(), 1u);
}

TEST(EvaluateTest, BooleanQuery) {
  EngineContext ctx;
  Database db = Db("e(5, 6). e(6, 7).");
  auto yes = EvaluateQuery(
      ctx, MustParseQuery("q() :- e(X, Y), e(Y, Z), X < 6"), db);
  ASSERT_TRUE(yes.ok());
  EXPECT_EQ(yes.value().size(), 1u);  // the empty tuple
  auto no = EvaluateQuery(
      ctx, MustParseQuery("q() :- e(X, Y), e(Y, Z), X > 6"), db);
  ASSERT_TRUE(no.ok());
  EXPECT_TRUE(no.value().empty());
}

TEST(EvaluateTest, SelfJoinRepeatedVariable) {
  EngineContext ctx;
  Database db = Db("e(1, 1). e(1, 2).");
  auto res = EvaluateQuery(ctx, MustParseQuery("q(X) :- e(X, X)"), db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().size(), 1u);
}

TEST(EvaluateTest, UnionEvaluation) {
  EngineContext ctx;
  Database db = Db("r(1). r(5).");
  UnionQuery u;
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X < 2"));
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X > 4"));
  auto res = EvaluateUnion(ctx, u, db);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().size(), 2u);
}

TEST(EvaluateTest, MaterializeViews) {
  EngineContext ctx;
  Database db = Db("car(1, 10). loc(10, 99). color(1, red).");
  ViewSet views(MustParseRules(
      "v1(X, Y) :- car(X, D), loc(D, Y).\n"
      "v2(W, Z) :- color(W, Z)."));
  auto vdb = MaterializeViews(ctx, views, db);
  ASSERT_TRUE(vdb.ok()) << vdb.status();
  EXPECT_EQ(vdb.value().Get("v1").size(), 1u);
  EXPECT_EQ(vdb.value().Get("v2").size(), 1u);
}

TEST(EvaluateTest, GroundComparisonSemantics) {
  Value red{std::string("red")};
  Value blue{std::string("blue")};
  Value three{Rational(3)};
  Value four{Rational(4)};
  EXPECT_TRUE(EvaluateGroundComparison(three, CompOp::kLt, four));
  EXPECT_FALSE(EvaluateGroundComparison(four, CompOp::kLt, three));
  EXPECT_TRUE(EvaluateGroundComparison(red, CompOp::kEq, red));
  EXPECT_FALSE(EvaluateGroundComparison(red, CompOp::kEq, blue));
  // Symbols and mixed types are unordered.
  EXPECT_FALSE(EvaluateGroundComparison(red, CompOp::kLt, blue));
  EXPECT_FALSE(EvaluateGroundComparison(red, CompOp::kLe, three));
}

TEST(EvaluateTest, RandomDatabaseGeneratorIsDeterministic) {
  std::map<std::string, int> schema{{"r", 2}, {"s", 1}};
  gen::DatabaseSpec spec;
  spec.tuples_per_relation = 20;
  Rng rng1(99), rng2(99);
  Database a = gen::RandomDatabase(rng1, schema, spec);
  Database b = gen::RandomDatabase(rng2, schema, spec);
  EXPECT_EQ(a.ToString(), b.ToString());
}

}  // namespace
}  // namespace cqac
