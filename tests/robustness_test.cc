// Failure injection and robustness: malformed inputs must produce Status
// errors (never crashes), and resource limits must be honored.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/datalog/engine.h"
#include "src/eval/evaluate.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

TEST(RobustnessTest, ParserSurvivesRandomBytes) {
  Rng rng(13);
  const std::string alphabet =
      "abcXYZ019(),.:-<=> \t%_/";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s;
    int len = static_cast<int>(rng.Uniform(0, 40));
    for (int i = 0; i < len; ++i)
      s += alphabet[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(alphabet.size()) - 1))];
    // Must not crash; any Status outcome is fine.
    auto r = ParseQuery(s);
    (void)r;
    auto rules = ParseRules(s);
    (void)rules;
  }
}

TEST(RobustnessTest, ParserSurvivesMutatedValidInput) {
  Rng rng(29);
  const std::string base =
      "q(A, B) :- r(A, C), s(C, B), color(A, red), A < 7/2, B >= -3.";
  for (int iter = 0; iter < 1000; ++iter) {
    std::string s = base;
    int edits = static_cast<int>(rng.Uniform(1, 4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(s.size()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          s.erase(pos, 1);
          break;
        case 1:
          s.insert(pos, 1, '(');
          break;
        default:
          s[pos] = '<';
          break;
      }
    }
    auto r = ParseQuery(s);
    if (r.ok()) {
      EXPECT_GE(r.value().num_vars(), 0);
    }
  }
}

TEST(RobustnessTest, ValidationGuardsEvaluation) {
  // Unsafe queries are rejected by evaluation, not silently mis-answered.
  EngineContext ctx;
  Query unsafe = MustParseQuery("q(X, W) :- r(X)");
  Database db = Database::FromFacts("r(1).").value();
  EXPECT_FALSE(EvaluateQuery(ctx, unsafe, db).ok());
}

TEST(RobustnessTest, HomomorphismCapSurfaces) {
  // A query with many self-join mappings exceeds a tiny cap and reports
  // ResourceExhausted rather than silently truncating.
  std::string body;
  for (int i = 0; i < 7; ++i)
    body += (i ? ", " : "") + std::string("e(X") + std::to_string(i) +
            ", Y" + std::to_string(i) + ")";
  Query big = MustParseQuery("q() :- " + body + ", X0 < Y0");
  Query small = MustParseQuery("q() :- e(A, B), e(C, D), A < D");
  Budget budget;
  budget.max_homomorphisms = 4;
  EngineContext ctx(budget);
  ContainmentOptions opts;
  opts.use_single_mapping_fast_path = false;
  auto r = IsContained(ctx, big, small, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.stats().budget_exhaustions, 0u);
}

TEST(RobustnessTest, RewriteCapsSurface) {
  Query q = MustParseQuery("q() :- e(X0, X1), e(X1, X2), e(X2, X3)");
  ViewSet views(MustParseRules(
      "v1(A, B) :- e(A, B).\n"
      "v2(A, B) :- e(A, B).\n"
      "v3(A, B) :- e(A, B)."));
  // The three identical views yield many complete covers; a tiny mapping
  // budget must surface as ResourceExhausted, never as a silently truncated
  // result.
  Budget budget;
  budget.max_mappings = 2;
  EngineContext ctx(budget);
  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_FALSE(mcr.ok());
  EXPECT_EQ(mcr.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.stats().budget_exhaustions, 0u);
}

TEST(RobustnessTest, EngineRejectsArityConflicts) {
  Database db;
  ASSERT_TRUE(db.Insert("e", {Value(Rational(1))}).ok());
  Program p("q", MustParseRules("q(X, Y) :- e(X, Y)."));
  datalog::Engine engine(p);
  auto r = engine.Query(db);
  // Arity-mismatched tuples simply never unify; no crash, empty result.
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value().empty());
}

TEST(RobustnessTest, ConstantHeadsInRulesWork) {
  Program p("q", MustParseRules("q(3, X) :- e(X, Y)."));
  datalog::Engine engine(p);
  Database db = Database::FromFacts("e(7, 8).").value();
  auto r = engine.Query(db);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_TRUE(r.value().count({Value(Rational(3)), Value(Rational(7))}));
}

TEST(RobustnessTest, ViewHeadConstantsExpand) {
  ViewSet views(MustParseRules("v(X, west) :- stores(X, west)."));
  Query p = MustParseQuery("p(S) :- v(S, R)");
  auto exp = ExpandRewriting(p, views);
  ASSERT_TRUE(exp.ok()) << exp.status();
  // The expansion pins R = west through an equality comparison.
  bool has_eq = false;
  for (const Comparison& c : exp.value().comparisons())
    if (c.op == CompOp::kEq) has_eq = true;
  EXPECT_TRUE(has_eq);
}

TEST(RobustnessTest, EmptyViewSetEverywhere) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X), X < 2");
  ViewSet none;
  EXPECT_TRUE(RewriteLsiQuery(ctx, q, none).value().empty());
  auto exp = ExpandRewriting(q, none);
  EXPECT_FALSE(exp.ok());  // r is not a view
}

TEST(RobustnessTest, ZeroArityPredicates) {
  EngineContext ctx;
  Query q = MustParseQuery("q() :- flag(), r(X)");
  Database db = Database::FromFacts("flag(). r(1).").value();
  auto r = EvaluateQuery(ctx, q, db);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().size(), 1u);
}

TEST(RobustnessTest, LargeConstantsStayExact) {
  EngineContext ctx;
  Query a = MustParseQuery(
      "q(X) :- r(X), X < 4611686018427387904");  // 2^62
  Query b = MustParseQuery(
      "q(X) :- r(X), X < 4611686018427387905");
  auto r = IsContained(ctx, a, b);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  auto r2 = IsContained(ctx, b, a);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());
}

}  // namespace
}  // namespace cqac
