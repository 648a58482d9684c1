// Cross-validation of the two Datalog semantics implementations: bottom-up
// fixpoint evaluation (src/datalog/engine.h) versus unfolding into a union
// of conjunctive queries (src/datalog/unfold.h) evaluated directly.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/datalog/engine.h"
#include "src/datalog/unfold.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

// For NON-recursive programs, full unfolding is exact: engine(db) must
// equal the evaluation of the unfolded union.
TEST(EngineUnfoldCrossCheck, NonRecursiveProgramsAgree) {
  EngineContext ctx;
  std::vector<Program> programs;
  programs.emplace_back("q", MustParseRules(
                                 "q(X) :- a(X, Y), h(Y).\n"
                                 "h(Y) :- b(Y).\n"
                                 "h(Y) :- c(Y), Y < 3."));
  programs.emplace_back("q", MustParseRules(
                                 "q(X, Z) :- s1(X, Y), s2(Y, Z).\n"
                                 "s1(X, Y) :- a(X, Y), X <= Y.\n"
                                 "s2(Y, Z) :- a(Y, Z), Z < 5.\n"
                                 "s2(Y, Z) :- b(Z), a(Y, Z)."));
  Rng rng(314);
  for (const Program& p : programs) {
    datalog::Engine engine(p);
    datalog::UnfoldOptions opts;
    opts.max_depth = 8;
    UnionQuery unfolded = datalog::UnfoldProgram(p, opts).value();
    ASSERT_FALSE(unfolded.disjuncts.empty());
    for (int iter = 0; iter < 10; ++iter) {
      gen::DatabaseSpec spec;
      spec.tuples_per_relation = 20;
      spec.value_max = 8;
      Database db = gen::RandomDatabase(
          rng, {{"a", 2}, {"b", 1}, {"c", 1}}, spec);
      Relation via_engine = engine.Query(db).value();
      Relation via_unfold = EvaluateUnion(ctx, unfolded, db).value();
      ASSERT_EQ(via_engine, via_unfold) << p.ToString();
    }
  }
}

// For RECURSIVE programs, bounded unfolding under-approximates: the
// unfolded union's answers are a subset of the engine's, and they converge
// as depth grows past the data's diameter.
TEST(EngineUnfoldCrossCheck, RecursiveProgramsConverge) {
  EngineContext ctx;
  Program p("t", MustParseRules(
                     "t(X, Y) :- e(X, Y).\n"
                     "t(X, Z) :- e(X, Y), t(Y, Z)."));
  datalog::Engine engine(p);
  Database db;
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(
        db.Insert("e", {Value(Rational(i)), Value(Rational(i + 1))}).ok());
  Relation full = engine.Query(db).value();
  ASSERT_EQ(full.size(), 21u);  // 6+5+...+1

  size_t prev = 0;
  for (int depth = 1; depth <= 6; ++depth) {
    datalog::UnfoldOptions opts;
    opts.max_depth = depth;
    UnionQuery u = datalog::UnfoldProgram(p, opts).value();
    Relation approx = EvaluateUnion(ctx, u, db).value();
    for (const Tuple& t : approx) ASSERT_TRUE(full.count(t));
    ASSERT_GE(approx.size(), prev);  // monotone in depth
    prev = approx.size();
  }
  ASSERT_EQ(prev, full.size());  // converged at the diameter
}

// Comparison guards are honored identically on both paths.
TEST(EngineUnfoldCrossCheck, ComparisonsAgree) {
  EngineContext ctx;
  Program p("q", MustParseRules(
                     "q(X) :- step(X).\n"
                     "step(X) :- a(X, Y), X < Y, Y <= 6."));
  datalog::Engine engine(p);
  UnionQuery u = datalog::UnfoldProgram(p).value();
  Rng rng(42);
  gen::DatabaseSpec spec;
  spec.tuples_per_relation = 30;
  spec.value_max = 10;
  for (int iter = 0; iter < 10; ++iter) {
    Database db = gen::RandomDatabase(rng, {{"a", 2}}, spec);
    ASSERT_EQ(engine.Query(db).value(), EvaluateUnion(ctx, u, db).value());
  }
}

// Random nonrecursive two-layer programs.
TEST(EngineUnfoldCrossCheck, RandomLayeredPrograms) {
  EngineContext ctx;
  Rng rng(2718);
  for (int iter = 0; iter < 15; ++iter) {
    // Layer 1: h defined by 1-2 rules over base preds; layer 2: q over h.
    Program p;
    p.set_query_predicate("q");
    gen::QuerySpec hspec;
    hspec.num_subgoals = 2;
    hspec.num_vars = 3;
    hspec.ac_density = 0.5;
    hspec.ac_mode = gen::AcMode::kSi;
    hspec.boolean_head = false;
    hspec.head_arity = 1;
    int h_rules = static_cast<int>(rng.Uniform(1, 2));
    for (int i = 0; i < h_rules; ++i) {
      Query h = gen::RandomQuery(rng, hspec, "h");
      if (!h.Validate().ok()) continue;
      p.AddRule(h);
    }
    if (p.rules().empty()) continue;
    Query q = MustParseQuery("q(X) :- h(X)");
    p.AddRule(q);

    datalog::Engine engine(p);
    UnionQuery u = datalog::UnfoldProgram(p).value();
    gen::DatabaseSpec spec;
    spec.tuples_per_relation = 15;
    spec.value_max = 8;
    Database db = gen::RandomDatabase(rng, {{"p0", 2}, {"p1", 2}}, spec);
    auto via_engine = engine.Query(db);
    auto via_unfold = EvaluateUnion(ctx, u, db);
    ASSERT_TRUE(via_engine.ok()) << via_engine.status() << p.ToString();
    ASSERT_TRUE(via_unfold.ok());
    ASSERT_EQ(via_engine.value(), via_unfold.value()) << p.ToString();
  }
}

}  // namespace
}  // namespace cqac
