#include "src/rewriting/si_mcr.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(SiMcrTest, Example12ProgramShape) {
  EngineContext ctx;
  auto mcr = RewriteSiQueryDatalog(ctx, workloads::Example12Query(),
                                   workloads::Example12Views());
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  const SiMcr& m = mcr.value();
  EXPECT_FALSE(m.rules.empty());
  // Contains coupling rules (I from J), inverse rules with skolems, domain
  // rules and comparison-based U rules.
  bool has_coupling = false, has_skolem = false, has_dom = false,
       has_u_comp = false;
  for (const datalog::EngineRule& r : m.rules) {
    if (r.rule.head().predicate.rfind("I_", 0) == 0 &&
        !r.rule.body().empty() &&
        r.rule.body()[0].predicate.rfind("J_", 0) == 0)
      has_coupling = true;
    if (!r.skolems.empty()) has_skolem = true;
    if (r.rule.head().predicate == "dom") has_dom = true;
    if (r.rule.head().predicate.rfind("U_", 0) == 0 &&
        !r.rule.comparisons().empty())
      has_u_comp = true;
  }
  EXPECT_TRUE(has_coupling) << m.ToString();
  EXPECT_TRUE(has_skolem) << m.ToString();
  EXPECT_TRUE(has_dom) << m.ToString();
  EXPECT_TRUE(has_u_comp) << m.ToString();
}

// Empirical soundness: on random databases, MCR(V(D)) subset-of Q(D).
TEST(SiMcrTest, Example12SoundOnRandomDatabases) {
  EngineContext ctx;
  Query q = workloads::Example12Query();
  ViewSet views = workloads::Example12Views();
  auto mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  datalog::Engine engine = mcr.value().MakeEngine();

  Rng rng(1);
  for (int iter = 0; iter < 20; ++iter) {
    gen::DatabaseSpec spec;
    spec.tuples_per_relation = 15;
    spec.value_min = 3;
    spec.value_max = 10;
    Database db = gen::RandomDatabase(rng, {{"e", 2}}, spec);
    auto vdb = MaterializeViews(ctx, views, db);
    ASSERT_TRUE(vdb.ok());
    auto mcr_ans = engine.Query(vdb.value());
    ASSERT_TRUE(mcr_ans.ok()) << mcr_ans.status();
    auto q_ans = EvaluateQuery(ctx, q, db);
    ASSERT_TRUE(q_ans.ok());
    // Boolean query: MCR true -> Q true.
    if (!mcr_ans.value().empty()) {
      EXPECT_FALSE(q_ans.value().empty()) << "iteration " << iter;
    }
  }
}

// Completeness against the P_k family: whenever P_k fires on the view
// instance, the MCR fires too (the MCR contains every P_k).
TEST(SiMcrTest, Example12CoversPkChains) {
  EngineContext ctx;
  Query q = workloads::Example12Query();
  ViewSet views = workloads::Example12Views();
  auto mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  datalog::Engine engine = mcr.value().MakeEngine();

  for (int k = 0; k <= 3; ++k) {
    // A database realizing exactly the P_k pattern: a chain of 2k+2 edges
    // with first tail 9 (> 6) and last head 3 (< 4); interior values are
    // distinct rationals in (4, 6), so no interior node enters v1 or v2 and
    // no shorter pattern fires.
    Database db;
    const int n = 2 * k + 2;
    auto val = [&](int i) {
      if (i == 0) return Rational(9);
      if (i == n) return Rational(3);
      return Rational(4 * (n + 1) + 2 * i, n + 1);
    };
    for (int i = 0; i < n; ++i)
      ASSERT_TRUE(db.Insert("e", {Value(val(i)), Value(val(i + 1))}).ok());

    auto vdb = MaterializeViews(ctx, views, db);
    ASSERT_TRUE(vdb.ok());
    // P_k itself fires on the view instance.
    auto pk_ans = EvaluateQuery(ctx, workloads::Example12Pk(k), vdb.value());
    ASSERT_TRUE(pk_ans.ok());
    ASSERT_FALSE(pk_ans.value().empty()) << "P_" << k << " did not fire";
    // The query fires on the base database (sanity).
    auto q_ans = EvaluateQuery(ctx, q, db);
    ASSERT_TRUE(q_ans.ok());
    ASSERT_FALSE(q_ans.value().empty());
    // And the recursive MCR covers it.
    auto mcr_ans = engine.Query(vdb.value());
    ASSERT_TRUE(mcr_ans.ok()) << mcr_ans.status();
    EXPECT_FALSE(mcr_ans.value().empty()) << "MCR missed P_" << k;
  }
}

// No finite union produced from bounded P_k's covers P_{k+1}'s database:
// the empirical face of Proposition 5.1.
TEST(SiMcrTest, FiniteUnionsMissDeeperChains) {
  EngineContext ctx;
  ViewSet views = workloads::Example12Views();
  const int kDeep = 4;
  Database db;
  const int n = 2 * kDeep + 2;
  auto val = [&](int i) {
    if (i == 0) return Rational(9);
    if (i == n) return Rational(3);
    return Rational(4 * (n + 1) + 2 * i, n + 1);
  };
  for (int i = 0; i < n; ++i)
    ASSERT_TRUE(db.Insert("e", {Value(val(i)), Value(val(i + 1))}).ok());
  auto vdb = MaterializeViews(ctx, views, db);
  ASSERT_TRUE(vdb.ok());

  // P_0..P_3 all miss this database; P_4 catches it.
  for (int k = 0; k < kDeep; ++k) {
    auto ans = EvaluateQuery(ctx, workloads::Example12Pk(k), vdb.value());
    ASSERT_TRUE(ans.ok());
    EXPECT_TRUE(ans.value().empty()) << "P_" << k;
  }
  auto deep = EvaluateQuery(ctx, workloads::Example12Pk(kDeep), vdb.value());
  ASSERT_TRUE(deep.ok());
  EXPECT_FALSE(deep.value().empty());
}

TEST(SiMcrTest, RejectsNonCqacSiQuery) {
  EngineContext ctx;
  Query bad = MustParseQuery(
      "q() :- e(X, Y), e(Z, W), X < 1, Y < 2, Z > 3, W > 4");
  auto mcr = RewriteSiQueryDatalog(ctx, bad, workloads::Example12Views());
  EXPECT_FALSE(mcr.ok());
}

TEST(SiMcrTest, RejectsNonSiViews) {
  EngineContext ctx;
  ViewSet bad(MustParseRules("v(X, Y) :- e(X, Y), X <= Y."));
  auto mcr = RewriteSiQueryDatalog(ctx, workloads::Example12Query(), bad);
  EXPECT_FALSE(mcr.ok());
}

TEST(SiMcrTest, Section6ExtensionGeneralViews) {
  // The future-work extension: a view with a variable-variable comparison.
  // v hides B but guarantees A < B; combined with B's hidden bound B < 4 it
  // implies nothing about A alone, while w's A <= B with B <= 3 implies
  // A <= 3 < 8, so w's hidden tail yields a usable U_lt_8 fact.
  EngineContext ctx;
  Query q = workloads::Example12Query();  // e-e path, X > 5, Z < 8
  ViewSet views(MustParseRules(
      "v(A) :- e(A, B), A < B, 6 < A.\n"
      "w(A) :- e(A, B), A <= B, B <= 3.\n"
      "plain(A, B) :- e(A, B)."));
  SiMcrOptions opts;
  opts.allow_general_views = true;
  auto mcr = RewriteSiQueryDatalog(ctx, q, views, opts);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  // Default mode still rejects.
  EXPECT_FALSE(RewriteSiQueryDatalog(ctx, q, views).ok());

  // Soundness on random databases: every certain answer is a true answer.
  datalog::Engine engine = mcr.value().MakeEngine();
  Rng rng(66);
  for (int iter = 0; iter < 15; ++iter) {
    gen::DatabaseSpec spec;
    spec.tuples_per_relation = 12;
    spec.value_min = 0;
    spec.value_max = 12;
    Database db = gen::RandomDatabase(rng, {{"e", 2}}, spec);
    Database vdb = MaterializeViews(ctx, views, db).value();
    auto certain = engine.Query(vdb);
    ASSERT_TRUE(certain.ok()) << certain.status();
    if (!certain.value().empty()) {
      auto truth = EvaluateQuery(ctx, q, db);
      ASSERT_TRUE(truth.ok());
      EXPECT_FALSE(truth.value().empty()) << "unsound on iteration " << iter;
    }
  }

  // And it is genuinely useful: a workload where the general-AC view is
  // essential. v1 (SI) supplies the left edge with a hidden tail > 6; g
  // (general: A <= B, B <= 3) supplies the right edge whose hidden head is
  // guaranteed < 8 through the variable-variable comparison.
  ViewSet mixed(MustParseRules(
      "v1(B) :- e(A, B), 6 < A.\n"
      "g(A) :- e(A, B), A <= B, B <= 3."));
  auto mixed_mcr = RewriteSiQueryDatalog(ctx, q, mixed, opts);
  ASSERT_TRUE(mixed_mcr.ok()) << mixed_mcr.status();
  datalog::Engine mixed_engine = mixed_mcr.value().MakeEngine();
  // e(9, 2), e(2, 3): the true pattern (9 > 5, 3 < 8) is certified by
  // v1(2) + g(2) joining on the visible middle value 2.
  Database db = Database::FromFacts("e(9, 2). e(2, 3).").value();
  Database vdb = MaterializeViews(ctx, mixed, db).value();
  auto ans = mixed_engine.Query(vdb);
  ASSERT_TRUE(ans.ok()) << ans.status();
  EXPECT_FALSE(ans.value().empty());
  // The SI-only subset of the views cannot certify it.
  ViewSet si_only(MustParseRules("v1(B) :- e(A, B), 6 < A."));
  auto si_mcr = RewriteSiQueryDatalog(ctx, q, si_only);
  ASSERT_TRUE(si_mcr.ok()) << si_mcr.status();
  Database si_vdb = MaterializeViews(ctx, si_only, db).value();
  auto si_ans = si_mcr.value().MakeEngine().Query(si_vdb);
  ASSERT_TRUE(si_ans.ok());
  EXPECT_TRUE(si_ans.value().empty());
}

TEST(SiMcrTest, DistinguishedValuesSatisfyComparisonsDirectly) {
  // A view exposing both endpoints: real values flow through dom/U rules.
  EngineContext ctx;
  Query q = workloads::Example12Query();
  ViewSet views(MustParseRules("v3(A, B) :- e(A, B)."));
  auto mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  datalog::Engine engine = mcr.value().MakeEngine();
  // e(9, 4), e(4, 5): X=9 > 5, Z=5 < 8.
  Database db = Database::FromFacts("e(9, 4). e(4, 5).").value();
  auto vdb = MaterializeViews(ctx, views, db);
  ASSERT_TRUE(vdb.ok());
  auto ans = engine.Query(vdb.value());
  ASSERT_TRUE(ans.ok()) << ans.status();
  EXPECT_FALSE(ans.value().empty());
  // Counterexample database: bounds violated.
  Database db2 = Database::FromFacts("e(1, 4). e(4, 9).").value();
  auto vdb2 = MaterializeViews(ctx, views, db2);
  ASSERT_TRUE(vdb2.ok());
  auto ans2 = engine.Query(vdb2.value());
  ASSERT_TRUE(ans2.ok());
  EXPECT_TRUE(ans2.value().empty());
}

TEST(SiMcrTest, DistinguishedHeadChainsArePinnedToTheAnswer) {
  // Regression for an unsoundness the whole-program auditor caught: with a
  // distinguished head, the I/J case-split must not certify q(a) from a
  // chain whose own witness yields q(b). Here the path 9 -> 1 -> 3 -> 4 ->
  // 5 satisfies the boolean version of the query (9 > 5 and 5 < 8 two hops
  // later), but q(3) is NOT a certain answer — 3 > 5 fails — and only q(9)
  // is. The unpinned program derived both.
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- e(X, Y), e(Y, Z), 5 < X, Z < 8");
  ViewSet views;
  ASSERT_TRUE(views.Add(MustParseQuery("v3(A, B) :- e(A, B)")).ok());
  auto mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  Database db =
      Database::FromFacts("e(9, 1). e(1, 3). e(3, 4). e(4, 5). e(5, 0).")
          .value();
  auto vdb = MaterializeViews(ctx, views, db);
  ASSERT_TRUE(vdb.ok());
  auto ans = mcr.value().MakeEngine().Query(vdb.value());
  ASSERT_TRUE(ans.ok()) << ans.status();
  auto truth = EvaluateQuery(ctx, q, db);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(ans.value(), truth.value());
  EXPECT_EQ(ans.value().size(), 1u);
}

}  // namespace
}  // namespace cqac
