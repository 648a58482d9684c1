// Mutation harness for the whole-program auditor (src/analysis/audit):
// every certificate kind is first certified honestly, then corrupted in a
// targeted way — a dropped entry, a swapped homomorphism, an off-by-one
// count delta, a forged rule — and the reference checker must reject it
// with the stable InvalidArgument("certificate rejected: ...") convention.
#include "src/analysis/audit/audit.h"

#include <gtest/gtest.h>

#include <string>

#include "src/analysis/audit/unfold_mcr.h"
#include "src/analysis/classify.h"
#include "src/containment/containment.h"
#include "src/containment/minimize.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/ir/parser.h"
#include "src/ir/view.h"
#include "src/ivm/maintain.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {
namespace {

using audit::Obligation;
using audit::ObligationKind;

Database Db(const std::string& facts) {
  auto r = Database::FromFacts(facts);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOr(Database());
}

void ExpectRejected(const Status& s) {
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  EXPECT_NE(s.message().find("certificate rejected"), std::string::npos) << s;
}

// ---- Report contract -------------------------------------------------------

TEST(AuditReportTest, ExitCodeIsTheKindOfTheFirstFailure) {
  audit::AuditReport report;
  report.obligations.push_back(
      {ObligationKind::kClassification, "q", Status::OK()});
  report.obligations.push_back({ObligationKind::kMinimizeQuery, "q",
                                Status::Unsupported("skipped on purpose")});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.ExitCode(), 0);
  EXPECT_EQ(report.skipped(), 1u);

  report.obligations.push_back(
      {ObligationKind::kMinimizeUnion, "q",
       Status::InvalidArgument("certificate rejected: forged")});
  report.obligations.push_back(
      {ObligationKind::kEval, "q",
       Status::InvalidArgument("certificate rejected: also forged")});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failures(), 2u);
  ASSERT_NE(report.FirstFailure(), nullptr);
  EXPECT_EQ(report.FirstFailure()->kind, ObligationKind::kMinimizeUnion);
  EXPECT_EQ(report.ExitCode(),
            static_cast<int>(ObligationKind::kMinimizeUnion));
}

TEST(AuditReportTest, JsonEscapesLabelsAndMessages) {
  // Labels and messages render through the shared RFC 8259 escaper
  // (JsonQuote): short escapes for quote, backslash, \n, \r and \t, and
  // \u00XX for the other control characters.
  const std::string nasty = std::string("q\"\\\n\r\t") + '\x01';
  audit::AuditReport report;
  report.obligations.push_back(
      {ObligationKind::kEval, nasty, Status::InvalidArgument(nasty)});
  EXPECT_EQ(report.ToJson(),
            R"({"obligations":[{"kind":"eval","code":9,)"
            R"("label":"q\"\\\n\r\t\u0001","verdict":"rejected",)"
            R"("message":"q\"\\\n\r\t\u0001"}],)"
            R"("failures":1,"skipped":0,"exit_code":9})");
}

// ---- Classification evidence -----------------------------------------------

TEST(AuditClassificationTest, HonestEvidenceCertifies) {
  Query q = MustParseQuery("q(X) :- r(X, Y), Y < 5, X > 1.");
  ClassificationEvidence ev = ClassifyQueryWithEvidence(q);
  EXPECT_TRUE(audit::CheckClassification(q, ev).ok());
}

TEST(AuditClassificationTest, DroppedKindEntryIsRejected) {
  Query q = MustParseQuery("q(X) :- r(X, Y), Y < 5, X > 1.");
  ClassificationEvidence ev = ClassifyQueryWithEvidence(q);
  ASSERT_FALSE(ev.kinds.empty());
  ev.kinds.pop_back();  // one obligation entry silently dropped
  ExpectRejected(audit::CheckClassification(q, ev));
}

TEST(AuditClassificationTest, ForgedClassIsRejected) {
  Query q = MustParseQuery("q(X) :- r(X, Y), Y < 5.");
  ClassificationEvidence ev = ClassifyQueryWithEvidence(q);
  ev.info.ac_class = AcClass::kNone;  // claims "plain CQ" for an LSI query
  ExpectRejected(audit::CheckClassification(q, ev));
}

// ---- Query minimization witness --------------------------------------------

TEST(AuditMinimizationTest, HonestWitnessCertifies) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X, Y), r(X, Z), s(Y).");
  MinimizationWitness w;
  auto m = MinimizeQuery(ctx, q, &w);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(audit::CheckMinimization(ctx, w).ok());
}

TEST(AuditMinimizationTest, SwappedHomomorphismIsRejected) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X, Y), r(X, Z), s(Y).");
  MinimizationWitness w;
  ASSERT_TRUE(MinimizeQuery(ctx, q, &w).ok());
  // Swap the images of the first two container variables in the forward
  // homomorphism: the head no longer maps to the head.
  ASSERT_FALSE(w.forward.mappings.empty());
  ASSERT_GE(w.forward.mappings[0].size(), 2u);
  std::swap(w.forward.mappings[0][0], w.forward.mappings[0][1]);
  ExpectRejected(audit::CheckMinimization(ctx, w));
}

TEST(AuditMinimizationTest, NonEquivalentMinimizedQueryIsRejected) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X, Y), r(X, Z), s(Y).");
  MinimizationWitness w;
  ASSERT_TRUE(MinimizeQuery(ctx, q, &w).ok());
  // Claim a strictly weaker "minimization" while keeping the old witnesses.
  w.minimized = MustParseQuery("q(X) :- r(X, Y).");
  ExpectRejected(audit::CheckMinimization(ctx, w));
}

// ---- Union minimization witness --------------------------------------------

UnionQuery RedundantUnion() {
  UnionQuery u;
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X, Y), X < 5."));
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X, Y), X < 3."));
  return u;
}

TEST(AuditUnionMinimizationTest, HonestWitnessCertifies) {
  EngineContext ctx;
  UnionMinimizationWitness w;
  auto m = MinimizeUnion(ctx, RedundantUnion(), &w);
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(w.dropped.size(), 1u) << "the narrower disjunct is redundant";
  EXPECT_TRUE(audit::CheckUnionMinimization(ctx, w).ok());
}

TEST(AuditUnionMinimizationTest, DroppedIndexEntryIsRejected) {
  EngineContext ctx;
  UnionMinimizationWitness w;
  ASSERT_TRUE(MinimizeUnion(ctx, RedundantUnion(), &w).ok());
  ASSERT_FALSE(w.dropped.empty());
  w.dropped.pop_back();  // kept/dropped no longer partition the original
  ExpectRejected(audit::CheckUnionMinimization(ctx, w));
}

TEST(AuditUnionMinimizationTest, SwappedKeptAndDroppedIsRejected) {
  EngineContext ctx;
  UnionMinimizationWitness w;
  ASSERT_TRUE(MinimizeUnion(ctx, RedundantUnion(), &w).ok());
  std::swap(w.kept, w.dropped);  // claims the wide disjunct is covered by
                                 // the narrow one
  ExpectRejected(audit::CheckUnionMinimization(ctx, w));
}

// ---- IVM maintenance certificate -------------------------------------------

struct MaintenanceFixture {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  ivm::MaintenanceCertificate cert;

  MaintenanceFixture() {
    EXPECT_TRUE(
        store.AddView(ctx, MustParseQuery("v(X, Y) :- r(X, Z), s(Z, Y)."))
            .ok());
    auto s = store.ApplyInsert(
        ctx, Db("r(1, 2). r(1, 3). s(2, 9). s(3, 9). s(2, 4)."), {}, &cert);
    EXPECT_TRUE(s.ok()) << s.status();
  }

  Status Check() const {
    return audit::CheckMaintenance(const_cast<EngineContext&>(ctx),
                                   store.view_queries(), cert, store.base(),
                                   store.views());
  }
};

TEST(AuditMaintenanceTest, HonestCertificateCertifies) {
  MaintenanceFixture f;
  EXPECT_TRUE(f.Check().ok()) << f.Check();
}

TEST(AuditMaintenanceTest, OffByOneCountDeltaIsRejected) {
  MaintenanceFixture f;
  ASSERT_FALSE(f.cert.views.empty());
  ASSERT_FALSE(f.cert.views[0].deltas.empty());
  f.cert.views[0].deltas[0].new_count += 1;
  Status s = f.Check();
  ExpectRejected(s);
  EXPECT_NE(s.message().find("post-count"), std::string::npos) << s;
}

TEST(AuditMaintenanceTest, DroppedTouchedTupleIsRejected) {
  MaintenanceFixture f;
  ASSERT_FALSE(f.cert.views.empty());
  ASSERT_FALSE(f.cert.views[0].deltas.empty());
  f.cert.views[0].deltas.pop_back();  // one touched tuple goes unreported
  ExpectRejected(f.Check());
}

TEST(AuditMaintenanceTest, WrongCountingFlagIsRejected) {
  MaintenanceFixture f;
  f.cert.counting = false;  // presence certificate from a counting maintainer
  ExpectRejected(f.Check());
}

// ---- SI-MCR unfolding -------------------------------------------------------

struct UnfoldFixture {
  EngineContext ctx;
  Query q = MustParseQuery("q() :- e(X, Y), e(Y, Z), 5 < X, Z < 8.");
  ViewSet views;
  SiMcr mcr;

  UnfoldFixture() {
    EXPECT_TRUE(views.Add(MustParseQuery("v(A, B) :- e(A, B).")).ok());
    EngineContext setup;  // the rewrite runs apart from the audited context
    auto m = RewriteSiQueryDatalog(setup, q, views);
    EXPECT_TRUE(m.ok()) << m.status();
    mcr = m.ValueOr(SiMcr());
  }
};

TEST(AuditUnfoldTest, HonestProgramCertifies) {
  UnfoldFixture f;
  EXPECT_TRUE(audit::CheckSiMcrUnfolding(f.ctx, f.q, f.views, f.mcr).ok());
  EXPECT_GE(f.ctx.stats().audit_unfold_disjuncts, 2u)
      << "the direct disjunct and the first chain round";
}

TEST(AuditUnfoldTest, ForgedUnconditionalRuleIsRejected) {
  UnfoldFixture f;
  // Forge a rule that answers the query from any domain value: its unfolded
  // disjunct q() :- v(A, B) is not contained in the query.
  datalog::EngineRule forged;
  forged.rule = MustParseQuery("q() :- dom(W).");
  f.mcr.rules.push_back(forged);
  f.mcr.rule_info.push_back({});
  ExpectRejected(audit::CheckSiMcrUnfolding(f.ctx, f.q, f.views, f.mcr));
}

TEST(AuditUnfoldTest, OversizedDisjunctIsSkippedNotCertified) {
  UnfoldFixture f;
  audit::UnfoldOptions opts;
  opts.max_containment_values = 1;  // every real disjunct is over budget
  Status s = audit::CheckSiMcrUnfolding(f.ctx, f.q, f.views, f.mcr, opts);
  EXPECT_EQ(s.code(), StatusCode::kUnsupported) << s;
}

// ---- The whole-program pass -------------------------------------------------

TEST(AuditAllTest, CertifiesASiSubjectEndToEnd) {
  EngineContext ctx;
  audit::AuditInputs inputs;
  inputs.query = MustParseQuery("q(X) :- e(X, Y), e(Y, Z), 5 < X, Z < 8.");
  EXPECT_TRUE(inputs.views.Add(MustParseQuery("v(A, B) :- e(A, B).")).ok());
  inputs.facts = Db("e(9, 1). e(1, 3). e(3, 4). e(4, 5). e(5, 0).");
  audit::AuditReport report;
  ASSERT_TRUE(audit::AuditAll(ctx, inputs, {}, &report).ok());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.failures(), 0u) << report.ToString();
  EXPECT_GT(ctx.stats().audit_obligations, 0u);
  EXPECT_EQ(ctx.stats().audit_failures, 0u);
  // The JSON rendering is self-contained and mentions every obligation.
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"obligations\""), std::string::npos) << json;
}

}  // namespace
}  // namespace cqac
