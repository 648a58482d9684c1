// Tests for the certificate checker (src/analysis/certificate.h): valid
// witnesses from every rewriting engine must validate; deliberately
// corrupted witnesses must be rejected; and the kInconsistent regression
// fixes in si_mcr / all_distinguished hold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/certificate.h"
#include "src/analysis/lint.h"
#include "src/base/rng.h"
#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/gen/generators.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/rewriting/all_distinguished.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/er_search.h"
#include "src/rewriting/rewrite_lsi.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {
namespace {

ViewSet MakeViews(const std::vector<std::string>& texts) {
  ViewSet views;
  for (const std::string& t : texts) {
    Status st = views.Add(MustParseQuery(t));
    EXPECT_TRUE(st.ok()) << st;
  }
  return views;
}

// ---- containment witnesses -------------------------------------------------

TEST(CertificateTest, ContainmentWitnessValidates) {
  Query q2 = MustParseQuery("q(X) :- r(X, Y), X < 3.");
  Query q1 = MustParseQuery("q(A) :- r(A, B), A < 5.");
  EngineContext ctx;
  ContainmentWitness w;
  Result<bool> c = IsContained(ctx, q2, q1, {}, &w);
  ASSERT_TRUE(c.ok()) << c.status();
  ASSERT_TRUE(c.value());
  Status st = CheckContainmentWitness(w);
  EXPECT_TRUE(st.ok()) << st;
}

TEST(CertificateTest, TamperedMappingTermRejected) {
  Query q2 = MustParseQuery("q(X) :- r(X, Y), s(Y), X < 3.");
  Query q1 = MustParseQuery("q(A) :- r(A, B), A < 5.");
  EngineContext ctx;
  ContainmentWitness w;
  ASSERT_TRUE(IsContained(ctx, q2, q1, {}, &w).value());
  ASSERT_FALSE(w.mappings.empty());
  // Redirect one mapped variable to a different contained-query variable:
  // the map is no longer a homomorphism (or breaks the head).
  ASSERT_FALSE(w.mappings[0].empty());
  int old_var = w.mappings[0][0].is_var() ? w.mappings[0][0].var() : 0;
  w.mappings[0][0] =
      Term::Var((old_var + 1) % w.contained.num_vars());
  EXPECT_FALSE(CheckContainmentWitness(w).ok());
}

TEST(CertificateTest, DroppedMappingRejected) {
  Query q2 = MustParseQuery("q(X) :- r(X, Y), X < 3.");
  Query q1 = MustParseQuery("q(A) :- r(A, B), A < 5.");
  EngineContext ctx;
  ContainmentWitness w;
  ASSERT_TRUE(IsContained(ctx, q2, q1, {}, &w).value());
  w.mappings.clear();
  EXPECT_FALSE(CheckContainmentWitness(w).ok());
}

TEST(CertificateTest, WeakenedPremiseRejected) {
  // The containment q2 ⊆ q1 hinges on q2's X < 3; erase it from the witness
  // and the implication re-check must fail.
  Query q2 = MustParseQuery("q(X) :- r(X, Y), X < 3.");
  Query q1 = MustParseQuery("q(A) :- r(A, B), A < 5.");
  EngineContext ctx;
  ContainmentWitness w;
  ASSERT_TRUE(IsContained(ctx, q2, q1, {}, &w).value());
  w.contained.comparisons().clear();
  EXPECT_FALSE(CheckContainmentWitness(w).ok());
}

TEST(CertificateTest, BogusInconsistencyClaimRejected) {
  Query q2 = MustParseQuery("q(X) :- r(X), X < 3.");
  Query q1 = MustParseQuery("q(A) :- r(A).");
  EngineContext ctx;
  ContainmentWitness w;
  ASSERT_TRUE(IsContained(ctx, q2, q1, {}, &w).value());
  w.contained_inconsistent = true;  // but the comparisons are satisfiable
  EXPECT_FALSE(CheckContainmentWitness(w).ok());
}

// ---- rewriting witnesses ---------------------------------------------------

TEST(CertificateTest, RewriteLsiWitnessValidates) {
  Query q = MustParseQuery("q(A) :- r(A), s(A, B), A < 3, B <= 7.");
  ViewSet views = MakeViews({"v1(X, Y) :- r(X), s(X, Y), Y <= 7.",
                             "v2(X) :- r(X), X < 5."});
  EngineContext ctx;
  RewritingWitness w;
  Result<UnionQuery> mcr = RewriteLsiQuery(ctx, q, views, {}, nullptr, &w);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_FALSE(mcr.value().disjuncts.empty());
  Status st = CheckRewritingWitness(q, views, mcr.value(), w);
  EXPECT_TRUE(st.ok()) << st;
}

TEST(CertificateTest, BucketWitnessValidates) {
  Query q = MustParseQuery("q(A, C) :- r(A, B), s(B, C), A < B, B <= C.");
  ViewSet views = MakeViews({"v1(X, Y, Z) :- r(X, Y), s(Y, Z)."});
  EngineContext ctx;
  RewritingWitness w;
  Result<UnionQuery> mcr = BucketRewrite(ctx, q, views, {}, nullptr, &w);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_FALSE(mcr.value().disjuncts.empty());
  Status st = CheckRewritingWitness(q, views, mcr.value(), w);
  EXPECT_TRUE(st.ok()) << st;
}

TEST(CertificateTest, ForeignDisjunctRejected) {
  // Swap the produced rewriting for a different (unwitnessed) one: the
  // expansion no longer matches the witness.
  Query q = MustParseQuery("q(A) :- r(A), s(A, B), A < 3, B <= 7.");
  ViewSet views = MakeViews({"v1(X, Y) :- r(X), s(X, Y), Y <= 7.",
                             "v2(X) :- r(X), X < 5."});
  EngineContext ctx;
  RewritingWitness w;
  Result<UnionQuery> mcr = RewriteLsiQuery(ctx, q, views, {}, nullptr, &w);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_FALSE(mcr.value().disjuncts.empty());
  UnionQuery tampered = mcr.value();
  tampered.disjuncts[0] = MustParseQuery("q(A) :- v2(A).");
  EXPECT_FALSE(CheckRewritingWitness(q, views, tampered, w).ok());
}

TEST(CertificateTest, AlteredWitnessComparisonRejected) {
  Query q = MustParseQuery("q(A) :- r(A), s(A, B), A < 3, B <= 7.");
  ViewSet views = MakeViews({"v1(X, Y) :- r(X), s(X, Y), Y <= 7.",
                             "v2(X) :- r(X), X < 5."});
  EngineContext ctx;
  RewritingWitness w;
  Result<UnionQuery> mcr = RewriteLsiQuery(ctx, q, views, {}, nullptr, &w);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_FALSE(w.disjuncts.empty());
  // Claim the query allows A < 30 instead of A < 3: the witness no longer
  // matches the preprocessed query.
  w.query.comparisons().clear();
  EXPECT_FALSE(CheckRewritingWitness(q, views, mcr.value(), w).ok());
}

// ---- equivalent rewritings -------------------------------------------------

TEST(CertificateTest, ErResultValidates) {
  // v1 matches the query exactly, so a single-CQAC ER exists.
  Query q = MustParseQuery("q(A) :- r(A), s(A, B), A < 3.");
  ViewSet views = MakeViews({"v1(X) :- r(X), s(X, Y), X < 3."});
  EngineContext ctx;
  ErWitness w;
  Result<ErResult> er = FindEquivalentRewriting(ctx, q, views, &w);
  ASSERT_TRUE(er.ok()) << er.status();
  ASSERT_TRUE(er.value().found());
  Status st = CheckErResult(q, views, er.value(), w);
  EXPECT_TRUE(st.ok()) << st;
}

TEST(CertificateTest, ErWithWrongBackWitnessRejected) {
  Query q = MustParseQuery("q(A) :- r(A), s(A, B), A < 3.");
  ViewSet views = MakeViews({"v1(X) :- r(X), s(X, Y), X < 3."});
  EngineContext ctx;
  ErWitness w;
  Result<ErResult> er = FindEquivalentRewriting(ctx, q, views, &w);
  ASSERT_TRUE(er.ok()) << er.status();
  ASSERT_TRUE(er.value().single.has_value());
  w.back.mappings.clear();
  EXPECT_FALSE(CheckErResult(q, views, er.value(), w).ok());
}

// ---- SI-MCR programs -------------------------------------------------------

TEST(CertificateTest, SiMcrValidates) {
  Query q = MustParseQuery("q() :- e(X, Y), e(Y, Z), X > 5, Z < 8.");
  ViewSet views = MakeViews({"v1(A, B) :- e(A, B), A > 5.",
                             "v2(A) :- e(A, B), B < 8."});
  EngineContext ctx;
  Result<SiMcr> mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  ASSERT_FALSE(mcr.value().rules.empty());
  Status st = CheckSiMcr(q, views, mcr.value());
  EXPECT_TRUE(st.ok()) << st;
}

TEST(CertificateTest, SiMcrTamperedUPredicateRejected) {
  Query q = MustParseQuery("q() :- e(X, Y), e(Y, Z), X > 5, Z < 8.");
  ViewSet views = MakeViews({"v1(A, B) :- e(A, B), A > 5."});
  EngineContext ctx;
  Result<SiMcr> mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  // Loosen a U-domain bound: U_gt_5 rules claiming X > 4 must be rejected.
  bool tampered = false;
  SiMcr bad = mcr.value();
  for (size_t i = 0; i < bad.rules.size(); ++i) {
    if (bad.rule_info[i].kind != SiMcrRuleInfo::Kind::kUDomain) continue;
    ASSERT_EQ(bad.rules[i].rule.comparisons().size(), 1u);
    Comparison& c = bad.rules[i].rule.comparisons()[0];
    c = Comparison(Term::Const(Value(Rational(4))), c.op, c.rhs);
    tampered = true;
    break;
  }
  ASSERT_TRUE(tampered);
  EXPECT_FALSE(CheckSiMcr(q, views, bad).ok());
}

TEST(CertificateTest, SiMcrDroppedQueryRuleRejected) {
  Query q = MustParseQuery("q() :- e(X, Y), e(Y, Z), X > 5, Z < 8.");
  ViewSet views = MakeViews({"v1(A, B) :- e(A, B), A > 5."});
  EngineContext ctx;
  Result<SiMcr> mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  SiMcr bad = mcr.value();
  ASSERT_EQ(bad.rule_info[0].kind, SiMcrRuleInfo::Kind::kQueryProgram);
  bad.rules.erase(bad.rules.begin());
  bad.rule_info.erase(bad.rule_info.begin());
  EXPECT_FALSE(CheckSiMcr(q, views, bad).ok());
}

// ---- kInconsistent handling (regression) -----------------------------------

TEST(CertificateTest, InconsistentQueryYieldsEmptySiMcr) {
  // Regression: an unsatisfiable query used to propagate kInconsistent as an
  // error out of RewriteSiQueryDatalog; it must produce the empty program.
  Query q = MustParseQuery("q() :- e(X, Y), X > 5, X < 3.");
  ViewSet views = MakeViews({"v1(A, B) :- e(A, B), A > 5."});
  EngineContext ctx;
  Result<SiMcr> mcr = RewriteSiQueryDatalog(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  EXPECT_TRUE(mcr.value().rules.empty());
  EXPECT_TRUE(CheckSiMcr(q, views, mcr.value()).ok());
  // A non-empty program for an empty query must be rejected.
  SiMcr bad = mcr.value();
  bad.rules.push_back(datalog::EngineRule{MustParseQuery("p(X) :- v1(X, Y)."),
                                          {}});
  bad.rule_info.push_back({SiMcrRuleInfo::Kind::kQueryProgram, -1});
  EXPECT_FALSE(CheckSiMcr(q, views, bad).ok());
}

TEST(CertificateTest, AllDistinguishedPrunesInconsistentExpansions) {
  // Regression: a candidate whose expansion is inconsistent (empty) used to
  // pass verification vacuously; it must be pruned from the union.
  Query q = MustParseQuery("q(A) :- r(A), A < 3.");
  // Joining v's body brings in 5 < X, making every expansion that uses it
  // for the subgoal inconsistent with A < 3.
  ViewSet views = MakeViews({"v(X) :- r(X), 5 < X."});
  EngineContext ctx;
  Result<UnionQuery> mcr = RewriteAllDistinguished(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  EXPECT_TRUE(mcr.value().disjuncts.empty())
      << mcr.value().ToString();
}

TEST(CertificateTest, InconsistentQueryYieldsEmptyRewritingWitness) {
  Query q = MustParseQuery("q(A) :- r(A), A < 3, 4 < A.");
  ViewSet views = MakeViews({"v(X) :- r(X)."});
  EngineContext ctx;
  RewritingWitness w;
  Result<UnionQuery> mcr = BucketRewrite(ctx, q, views, {}, nullptr, &w);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  EXPECT_TRUE(mcr.value().disjuncts.empty());
  EXPECT_TRUE(CheckRewritingWitness(q, views, mcr.value(), w).ok());
}

// ---- seeded sweeps: every produced rewriting certifies ----------------------

class CertificateSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CertificateSweep, RewriteLsiAlwaysCertifies) {
  Rng rng(GetParam() * 7 + 3);
  gen::QuerySpec qspec;
  qspec.num_subgoals = 2;
  qspec.num_vars = 3;
  qspec.ac_density = 0.8;
  qspec.ac_mode = rng.Chance(0.5) ? gen::AcMode::kLsi : gen::AcMode::kRsi;
  qspec.boolean_head = rng.Chance(0.4);
  qspec.head_arity = 1;
  Query q = gen::RandomQuery(rng, qspec);
  gen::ViewSpec vspec;
  vspec.num_views = 3;
  vspec.ac_mode = gen::AcMode::kSi;
  ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);

  EngineContext ctx;
  RewritingWitness w;
  Result<UnionQuery> mcr = RewriteLsiQuery(ctx, q, views, {}, nullptr, &w);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  Status st = CheckRewritingWitness(q, views, mcr.value(), w);
  ASSERT_TRUE(st.ok()) << st << "\nq = " << q.ToString() << "\nviews:\n"
                       << views.ToString();
}

TEST_P(CertificateSweep, BucketAlwaysCertifies) {
  Rng rng(GetParam() * 13 + 11);
  gen::QuerySpec qspec;
  qspec.num_subgoals = 2;
  qspec.num_vars = 3;
  qspec.ac_density = 0.8;
  qspec.ac_mode = gen::AcMode::kGeneral;
  qspec.boolean_head = true;
  Query q = gen::RandomQuery(rng, qspec);
  gen::ViewSpec vspec;
  vspec.num_views = 3;
  vspec.ac_mode = gen::AcMode::kSi;
  ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);

  EngineContext ctx;
  RewritingWitness w;
  Result<UnionQuery> mcr = BucketRewrite(ctx, q, views, {}, nullptr, &w);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  Status st = CheckRewritingWitness(q, views, mcr.value(), w);
  if (st.code() == StatusCode::kUnsupported) return;  // symbolic constants
  ASSERT_TRUE(st.ok()) << st << "\nq = " << q.ToString() << "\nviews:\n"
                       << views.ToString();
}

TEST_P(CertificateSweep, ErSearchAlwaysCertifies) {
  Rng rng(GetParam() * 29 + 17);
  gen::QuerySpec qspec;
  qspec.num_subgoals = 2;
  qspec.num_vars = 3;
  qspec.ac_density = 0.6;
  qspec.ac_mode = rng.Chance(0.5) ? gen::AcMode::kLsi : gen::AcMode::kRsi;
  qspec.boolean_head = true;
  Query q = gen::RandomQuery(rng, qspec);
  gen::ViewSpec vspec;
  vspec.num_views = 2;
  vspec.ac_mode = gen::AcMode::kSi;
  ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);

  EngineContext ctx;
  ErWitness w;
  Result<ErResult> er = FindEquivalentRewriting(ctx, q, views, &w);
  ASSERT_TRUE(er.ok()) << er.status();
  Status st = CheckErResult(q, views, er.value(), w);
  ASSERT_TRUE(st.ok()) << st << "\nq = " << q.ToString() << "\nviews:\n"
                       << views.ToString();
}

TEST_P(CertificateSweep, SiMcrAlwaysCertifies) {
  Rng rng(GetParam() * 41 + 23);
  gen::QuerySpec qspec;
  qspec.num_subgoals = 2;
  qspec.num_vars = 3;
  qspec.ac_density = 1.0;
  qspec.ac_mode = gen::AcMode::kCqacSi;
  qspec.boolean_head = true;
  Query q = gen::RandomQuery(rng, qspec);
  gen::ViewSpec vspec;
  vspec.num_views = 3;
  vspec.ac_mode = gen::AcMode::kSi;
  ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);

  EngineContext ctx;
  Result<SiMcr> mcr = RewriteSiQueryDatalog(ctx, q, views);
  if (!mcr.ok()) {
    // Preprocessing can move the query out of CQAC-SI; that's Unsupported,
    // not a certificate failure.
    ASSERT_EQ(mcr.status().code(), StatusCode::kUnsupported) << mcr.status();
    return;
  }
  Status st = CheckSiMcr(q, views, mcr.value());
  if (st.code() == StatusCode::kUnsupported) return;
  ASSERT_TRUE(st.ok()) << st << "\nq = " << q.ToString() << "\nviews:\n"
                       << views.ToString();
}

// Lint-clean queries (no errors from the semantic linter) must never trip
// the certificate checker: the linter's preconditions are exactly the
// rewriting engines'.
TEST_P(CertificateSweep, LintCleanQueriesNeverTripTheChecker) {
  Rng rng(GetParam() * 53 + 29);
  for (int iter = 0; iter < 4; ++iter) {
    gen::QuerySpec qspec;
    qspec.num_subgoals = static_cast<int>(rng.Uniform(1, 3));
    qspec.num_vars = 3;
    qspec.ac_density = 0.7;
    qspec.ac_mode = static_cast<gen::AcMode>(rng.Uniform(0, 5));
    qspec.boolean_head = true;
    Query q = gen::RandomQuery(rng, qspec);

    Result<ParsedQuery> parsed = ParseQueryWithInfo(q.ToString() + ".");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    if (MaxLintSeverity(LintQuery(parsed.value())) == LintSeverity::kError)
      continue;  // not lint-clean; no claim made

    gen::ViewSpec vspec;
    vspec.num_views = 2;
    vspec.ac_mode = gen::AcMode::kSi;
    ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);
    EngineContext ctx;
    RewritingWitness w;
    AcClass cls = q.Classify();
    Result<UnionQuery> mcr =
        (cls == AcClass::kNone || cls == AcClass::kLsi ||
         cls == AcClass::kRsi)
            ? RewriteLsiQuery(ctx, q, views, {}, nullptr, &w)
            : BucketRewrite(ctx, q, views, {}, nullptr, &w);
    ASSERT_TRUE(mcr.ok()) << mcr.status();
    Status st = CheckRewritingWitness(q, views, mcr.value(), w);
    if (st.code() == StatusCode::kUnsupported) continue;
    ASSERT_TRUE(st.ok()) << st << "\nq = " << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateSweep,
                         ::testing::Range<uint64_t>(1, 16),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cqac
