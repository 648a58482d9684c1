#include "tests/support/mirror.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

TEST(MirrorTest, FlipsClassesAndConstants) {
  Query lsi = MustParseQuery("q(X) :- r(X), X < 4, X <= -2");
  Query m = MirrorQuery(lsi);
  EXPECT_EQ(m.Classify(), AcClass::kRsi);
  EXPECT_EQ(m.ToString(), "q(X) :- r(X), -4 < X, 2 <= X");
}

TEST(MirrorTest, Involutive) {
  for (const char* text :
       {"q(X) :- r(X), X < 4", "q() :- e(A, B), A > 5, B <= 7/2",
        "q(X, Y) :- r(X, Y), X < Y", "q(C) :- color(C, red)",
        "q(X) :- r(X, 3), X >= -1"}) {
    Query q = MustParseQuery(text);
    EXPECT_EQ(MirrorQuery(MirrorQuery(q)).ToString(), q.ToString()) << text;
  }
}

TEST(MirrorTest, EvaluationCommutes) {
  EngineContext ctx;
  Rng rng(55);
  Query q = MustParseQuery("q(X, Y) :- e(X, Y), X < 4, Y >= 2");
  gen::DatabaseSpec spec;
  spec.tuples_per_relation = 40;
  spec.value_min = -10;
  spec.value_max = 10;
  Database db = gen::RandomDatabase(rng, {{"e", 2}}, spec);

  Relation direct = EvaluateQuery(ctx, q, db).value();
  Relation mirrored =
      EvaluateQuery(ctx, MirrorQuery(q), MirrorDatabase(db)).value();
  // Mirrors of the direct answers must equal the mirrored evaluation.
  Relation expected;
  for (const Tuple& t : direct) {
    Tuple nt;
    for (const Value& v : t)
      nt.push_back(v.is_number() ? Value(-v.number()) : v);
    expected.insert(nt);
  }
  EXPECT_EQ(mirrored, expected);
}

TEST(MirrorTest, ContainmentCommutes) {
  EngineContext ctx;
  Rng rng(77);
  for (int iter = 0; iter < 60; ++iter) {
    gen::QuerySpec spec;
    spec.num_subgoals = 2;
    spec.num_vars = 3;
    spec.ac_density = 1.0;
    spec.ac_mode = static_cast<gen::AcMode>(rng.Uniform(0, 5));
    spec.boolean_head = true;
    spec.const_min = -5;
    spec.const_max = 5;
    Query a = gen::RandomQuery(rng, spec);
    Query b = gen::RandomQuery(rng, spec);
    auto direct = IsContained(ctx, a, b);
    auto mirrored = IsContained(ctx, MirrorQuery(a), MirrorQuery(b));
    ASSERT_TRUE(direct.ok()) << direct.status();
    ASSERT_TRUE(mirrored.ok()) << mirrored.status();
    ASSERT_EQ(direct.value(), mirrored.value())
        << "a = " << a.ToString() << "\nb = " << b.ToString();
  }
}

TEST(MirrorTest, RewritingCommutes) {
  // The RSI path of RewriteLsiQuery is exactly the mirror of the LSI path:
  // rewriting the mirrored workload yields the mirrored MCR.
  EngineContext ctx;
  Query q = MustParseQuery("q(A) :- p(A, B), r(C), A > 5, B > 3");
  ViewSet views(MustParseRules(
      "v1(X1, X2, X3) :- p(X, Y), s(X1, X2, X3), "
      "X3 <= X, X <= X1, X <= X2, X3 <= Y.\n"
      "v2(U) :- r(U)."));
  auto direct = RewriteLsiQuery(ctx, q, views);
  auto mirrored = RewriteLsiQuery(ctx, MirrorQuery(q), MirrorViews(views));
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_TRUE(mirrored.ok()) << mirrored.status();
  ASSERT_EQ(direct.value().disjuncts.size(),
            mirrored.value().disjuncts.size());
  // Each mirrored rewriting must be equivalent to the mirror of some direct
  // rewriting.
  for (const Query& md : mirrored.value().disjuncts) {
    bool matched = false;
    for (const Query& d : direct.value().disjuncts) {
      auto eq = IsEquivalent(ctx, md, MirrorQuery(d));
      if (eq.ok() && eq.value()) matched = true;
    }
    EXPECT_TRUE(matched) << md.ToString();
  }
}

TEST(MirrorTest, DatabaseMirrorPreservesSymbols) {
  Database db = Database::FromFacts("color(1, red). color(-2, blue).").value();
  Database m = MirrorDatabase(db);
  EXPECT_TRUE(m.Get("color").count({Value(Rational(-1)),
                                    Value(std::string("red"))}));
  EXPECT_TRUE(m.Get("color").count({Value(Rational(2)),
                                    Value(std::string("blue"))}));
}

}  // namespace
}  // namespace cqac
