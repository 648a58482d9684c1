#include "src/datalog/engine.h"

#include <gtest/gtest.h>

#include "src/datalog/unfold.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

Database Db(const std::string& facts) {
  auto r = Database::FromFacts(facts);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOr(Database());
}

TEST(DatalogEngineTest, TransitiveClosure) {
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- e(X, Y), t(Y, Z)."));
  datalog::Engine engine(p);
  Database db = Db("e(1, 2). e(2, 3). e(3, 4).");
  auto res = engine.Query(db);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().size(), 6u);  // all ordered pairs along the chain
}

TEST(DatalogEngineTest, ComparisonsInRules) {
  Program p("q", MustParseRules(
                     "q(X) :- big(X).\n"
                     "big(X) :- e(X, Y), X > 2, Y <= 10."));
  datalog::Engine engine(p);
  Database db = Db("e(1, 5). e(3, 5). e(4, 11).");
  auto res = engine.Query(db);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().size(), 1u);
  EXPECT_TRUE(res.value().count({Value(Rational(3))}));
}

TEST(DatalogEngineTest, RecursionWithComparisonGuard) {
  // Reachability along increasing edges only.
  Program p("reach", MustParseRules(
                         "reach(X, Y) :- e(X, Y), X < Y.\n"
                         "reach(X, Z) :- reach(X, Y), e(Y, Z), Y < Z."));
  datalog::Engine engine(p);
  Database db = Db("e(1, 2). e(2, 5). e(5, 3). e(3, 4).");
  auto res = engine.Query(db);
  ASSERT_TRUE(res.ok());
  // 1->2->5, 3->4: pairs (1,2),(2,5),(1,5),(3,4).
  EXPECT_EQ(res.value().size(), 4u);
}

TEST(DatalogEngineTest, SkolemHeads) {
  // Inverse-rule style: r(X, f0(X)) :- v(X).
  Rule rule = MustParseQuery("r(X, H) :- v(X)");
  datalog::EngineRule er;
  er.rule = rule;
  datalog::SkolemSpec spec;
  spec.fn_id = 0;
  spec.arg_vars = {rule.FindVariable("X")};
  er.skolems.emplace(rule.FindVariable("H"), spec);

  datalog::Engine engine({er}, "r");
  Database db = Db("v(1). v(2).");
  auto all = engine.Evaluate(db);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all.value().Get("r").size(), 2u);
  for (const Tuple& t : all.value().Get("r")) {
    EXPECT_FALSE(datalog::IsSkolemValue(t[0]));
    EXPECT_TRUE(datalog::IsSkolemValue(t[1]));
  }
  // Query() filters Skolem-containing tuples.
  auto filtered = engine.Query(db);
  ASSERT_TRUE(filtered.ok());
  EXPECT_TRUE(filtered.value().empty());
}

TEST(DatalogEngineTest, SkolemTermsJoinByStructure) {
  // The same skolem term produced twice joins with itself.
  Rule r1 = MustParseQuery("r(X, H) :- v(X)");
  datalog::EngineRule er1{r1, {}};
  er1.skolems.emplace(r1.FindVariable("H"),
                      datalog::SkolemSpec{0, {r1.FindVariable("X")}});
  Rule r2 = MustParseQuery("s(X, H) :- v(X)");
  datalog::EngineRule er2{r2, {}};
  er2.skolems.emplace(r2.FindVariable("H"),
                      datalog::SkolemSpec{0, {r2.FindVariable("X")}});
  Rule join = MustParseQuery("q(X) :- r(X, H), s(X, H)");
  datalog::Engine engine({er1, er2, datalog::EngineRule{join, {}}}, "q");
  auto res = engine.Query(Db("v(1). v(2)."));
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res.value().size(), 2u);
}

TEST(DatalogEngineTest, UnsafeRuleRejected) {
  Program p("q", MustParseRules("q(X, Y) :- e(X, X)."));
  datalog::Engine engine(p);
  EXPECT_FALSE(engine.Query(Db("e(1, 1).")).ok());
}

TEST(DatalogEngineTest, EmptyEdbFixpointImmediately) {
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- e(X, Y), t(Y, Z)."));
  datalog::Engine engine(p);
  auto res = engine.Query(Database());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().empty());
}

TEST(DatalogEngineTest, TupleLimitEnforced) {
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- t(X, Y), t(Y, Z)."));
  datalog::Engine engine(p);
  Database db;
  for (int i = 0; i < 60; ++i)
    ASSERT_TRUE(db.Insert("e", {Value(Rational(i)),
                                Value(Rational(i + 1))}).ok());
  datalog::EvalOptions limits;
  limits.max_tuples = 10;
  auto res = engine.Query(db, limits);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
}

TEST(UnfoldTest, NonRecursiveProgram) {
  Program p("q", MustParseRules(
                     "q(X) :- a(X, Y), h(Y).\n"
                     "h(Y) :- b(Y).\n"
                     "h(Y) :- c(Y), Y < 3."));
  auto u = datalog::UnfoldProgram(p);
  ASSERT_TRUE(u.ok()) << u.status();
  ASSERT_EQ(u.value().disjuncts.size(), 2u);
  // Comparisons survive unfolding.
  bool has_comp = false;
  for (const Query& d : u.value().disjuncts)
    if (!d.comparisons().empty()) has_comp = true;
  EXPECT_TRUE(has_comp);
}

TEST(UnfoldTest, RecursiveProgramDepthBounded) {
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- e(X, Y), t(Y, Z)."));
  datalog::UnfoldOptions opts;
  opts.max_depth = 4;
  auto u = datalog::UnfoldProgram(p, opts);
  ASSERT_TRUE(u.ok()) << u.status();
  // A chain of length L needs L rule applications (L-1 recursive steps plus
  // the base rule), so max_depth = 4 yields chains of length 1..4.
  EXPECT_EQ(u.value().disjuncts.size(), 4u);
  for (const Query& d : u.value().disjuncts) {
    for (const Atom& a : d.body()) EXPECT_EQ(a.predicate, "e");
  }
}

// An exhausted disjunct cap is an error, never a silently truncated union.
TEST(UnfoldTest, DisjunctCapIsResourceExhausted) {
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- e(X, Y), t(Y, Z)."));
  datalog::UnfoldOptions opts;
  opts.max_depth = 4;  // four disjuncts: chains of length 1..4
  opts.max_disjuncts = 3;
  auto u = datalog::UnfoldProgram(p, opts);
  ASSERT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kResourceExhausted);
  opts.max_disjuncts = 4;
  u = datalog::UnfoldProgram(p, opts);
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_EQ(u.value().disjuncts.size(), 4u);
}

TEST(UnfoldTest, CqInDatalogContainment) {
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- e(X, Y), t(Y, Z)."));
  // A 3-chain is contained in transitive closure.
  Query chain = MustParseQuery("t(A, D) :- e(A, B), e(B, C), e(C, D)");
  auto r = datalog::IsCqContainedInDatalog(chain, p);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());
  // A disconnected pair is not.
  Query apart = MustParseQuery("t(A, D) :- e(A, B), e(C, D)");
  auto r2 = datalog::IsCqContainedInDatalog(apart, p);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());
}

TEST(UnfoldTest, ComparisonInputsRejectedByCqContainment) {
  Program p("t", MustParseRules("t(X) :- e(X, Y), X < 3."));
  Query cq = MustParseQuery("t(A) :- e(A, B)");
  EXPECT_FALSE(datalog::IsCqContainedInDatalog(cq, p).ok());
}

}  // namespace
}  // namespace cqac
