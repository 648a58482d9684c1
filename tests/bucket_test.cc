#include "src/rewriting/bucket.h"

#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

TEST(BucketTest, CarDealerAgreesWithRewriteLsi) {
  EngineContext ctx;
  auto bucket = BucketRewrite(ctx, workloads::CarDealerQuery(),
                              workloads::CarDealerViews());
  ASSERT_TRUE(bucket.ok()) << bucket.status();
  ASSERT_EQ(bucket.value().disjuncts.size(), 1u);
  auto mcr = RewriteLsiQuery(ctx, workloads::CarDealerQuery(),
                             workloads::CarDealerViews());
  ASSERT_TRUE(mcr.ok());
  auto equiv = IsEquivalent(ctx, bucket.value().disjuncts[0],
                            mcr.value().disjuncts[0]);
  ASSERT_TRUE(equiv.ok());
  EXPECT_TRUE(equiv.value());
}

TEST(BucketTest, AllCandidatesVerified) {
  EngineContext ctx;
  auto bucket = BucketRewrite(ctx, workloads::Sec44CaseQuery(),
                              workloads::Sec44CaseViews());
  ASSERT_TRUE(bucket.ok()) << bucket.status();
  for (const Query& d : bucket.value().disjuncts) {
    auto exp = ExpandRewriting(d, workloads::Sec44CaseViews());
    ASSERT_TRUE(exp.ok());
    auto c = IsContained(ctx, exp.value(), workloads::Sec44CaseQuery());
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(c.value()) << d.ToString();
  }
}

TEST(BucketTest, MissesExportRewritings) {
  // Example 1.1 needs the exportable-variable machinery; the bucket
  // algorithm (distinguished-only) cannot produce the rewriting — exactly
  // the gap Section 4.3 closes.
  EngineContext ctx;
  auto bucket = BucketRewrite(ctx, workloads::Example11Query(),
                              workloads::Example11Views());
  ASSERT_TRUE(bucket.ok()) << bucket.status();
  EXPECT_TRUE(bucket.value().disjuncts.empty()) << bucket.value().ToString();
  auto mcr = RewriteLsiQuery(ctx, workloads::Example11Query(),
                             workloads::Example11Views());
  ASSERT_TRUE(mcr.ok());
  EXPECT_FALSE(mcr.value().disjuncts.empty());
}

TEST(BucketTest, AcBlindModeStillSound) {
  // With ac_aware off, unsound candidates are generated but verification
  // rejects them; whatever remains is still contained.
  EngineContext ctx;
  BucketOptions opts;
  opts.ac_aware = false;
  auto bucket = BucketRewrite(ctx, workloads::Sec44CaseQuery(),
                              workloads::Sec44CaseViews(), opts);
  const uint64_t rejects = ctx.stats().rewrite_verified_rejects;
  ASSERT_TRUE(bucket.ok()) << bucket.status();
  for (const Query& d : bucket.value().disjuncts) {
    auto exp = ExpandRewriting(d, workloads::Sec44CaseViews());
    ASSERT_TRUE(exp.ok());
    auto c = IsContained(ctx, exp.value(), workloads::Sec44CaseQuery());
    ASSERT_TRUE(c.ok());
    EXPECT_TRUE(c.value()) << d.ToString();
  }
  // AC-blind candidates lacking the comparison are rejected.
  EXPECT_GT(rejects, 0u);
}

TEST(BucketTest, UncoverableSubgoalShortCircuits) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X), t(X)");
  ViewSet views(MustParseRules("v(X) :- r(X)."));
  auto bucket = BucketRewrite(ctx, q, views);
  ASSERT_TRUE(bucket.ok());
  EXPECT_TRUE(bucket.value().disjuncts.empty());
  EXPECT_EQ(ctx.stats().rewrite_candidates, 0u);
}

}  // namespace
}  // namespace cqac
