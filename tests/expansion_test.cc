#include "src/ir/expansion.h"

#include <gtest/gtest.h>

#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(ExpansionTest, Example11Expansion) {
  // Expanding P(A) :- v1(A, A), A < 4 must produce
  // r(X), s(A, A), A <= X, X <= A, A < 4 — which is contained in
  // q1(A) :- r(A), A < 4 after collapsing X = A.
  EngineContext ctx;
  ViewSet views = workloads::Example11Views();
  Query p = workloads::Example11Rewriting();
  auto exp = ExpandRewriting(p, views);
  ASSERT_TRUE(exp.ok()) << exp.status();

  auto contained = IsContained(ctx, exp.value(), workloads::Example11Query());
  ASSERT_TRUE(contained.ok()) << contained.status();
  EXPECT_TRUE(contained.value());
}

TEST(ExpansionTest, V2VariantIsNotContained) {
  // The same rewriting through v2 (X < Z instead of X <= Z) is NOT a CR:
  // the hidden X can no longer be equated with A.
  ViewSet views = workloads::Example11Views();
  Query p = MustParseQuery("p(A) :- v2(A, A), A < 4");
  auto exp = ExpandRewriting(p, views);
  ASSERT_TRUE(exp.ok()) << exp.status();
  // v2's ACs force A <= X < A: inconsistent expansion (empty query).
  auto pre = Preprocess(exp.value());
  EXPECT_FALSE(pre.ok());
  EXPECT_EQ(pre.status().code(), StatusCode::kInconsistent);
}

TEST(ExpansionTest, FreshVariablesForHiddenOnes) {
  ViewSet views(MustParseRules("v(X) :- r(X, Y), s(Y)."));
  Query p = MustParseQuery("p(A, B) :- v(A), v(B)");
  auto exp = ExpandRewriting(p, views);
  ASSERT_TRUE(exp.ok()) << exp.status();
  const Query& e = exp.value();
  // Two copies of the body, four atoms, and the two hidden Ys distinct.
  EXPECT_EQ(e.body().size(), 4u);
  EXPECT_EQ(e.num_vars(), 4);  // A, B, and two fresh Ys
}

TEST(ExpansionTest, RepeatedHeadVariableAddsEquality) {
  ViewSet views(MustParseRules("v(X, Y) :- r(X), s(Y)."));
  Query p = MustParseQuery("p(A, B) :- v(A, A), v(B, B)");
  auto exp = ExpandRewriting(p, views);
  ASSERT_TRUE(exp.ok()) << exp.status();
  EXPECT_EQ(exp.value().body().size(), 4u);
}

TEST(ExpansionTest, ViewComparisonsCarriedOver) {
  ViewSet views(MustParseRules("v(X) :- r(X, Y), Y < 3, X > Y."));
  Query p = MustParseQuery("p(A) :- v(A), A < 10");
  auto exp = ExpandRewriting(p, views);
  ASSERT_TRUE(exp.ok()) << exp.status();
  EXPECT_EQ(exp.value().comparisons().size(), 3u);
}

TEST(ExpansionTest, UnknownPredicateRejectedByDefault) {
  ViewSet views(MustParseRules("v(X) :- r(X)."));
  Query p = MustParseQuery("p(A) :- w(A)");
  EXPECT_FALSE(ExpandRewriting(p, views).ok());
}

TEST(ExpansionTest, ArityMismatchRejected) {
  ViewSet views(MustParseRules("v(X) :- r(X)."));
  Query p = MustParseQuery("p(A, B) :- v(A, B)");
  EXPECT_FALSE(ExpandRewriting(p, views).ok());
}

TEST(ExpansionTest, ConstantsInRewritingAtoms) {
  ViewSet views(MustParseRules("v(X, Y) :- color(X, Y)."));
  Query p = MustParseQuery("p(C) :- v(C, red)");
  auto exp = ExpandRewriting(p, views);
  ASSERT_TRUE(exp.ok()) << exp.status();
  ASSERT_EQ(exp.value().body().size(), 1u);
  EXPECT_EQ(exp.value().body()[0].args[1].value().symbol(), "red");
}

TEST(ExpansionTest, ExpansionOfPkChains) {
  // Example 1.2 reconstruction: P_k expands to an even chain with end
  // comparisons; each expansion is contained in the query.
  EngineContext ctx;
  ViewSet views = workloads::Example12Views();
  Query q = workloads::Example12Query();
  for (int k = 0; k <= 3; ++k) {
    Query pk = workloads::Example12Pk(k);
    auto exp = ExpandRewriting(pk, views);
    ASSERT_TRUE(exp.ok()) << exp.status();
    EXPECT_EQ(exp.value().body().size(), static_cast<size_t>(2 * k + 2));
    auto contained = IsContained(ctx, exp.value(), q);
    ASSERT_TRUE(contained.ok()) << contained.status();
    EXPECT_TRUE(contained.value()) << "P_" << k;
  }
}

TEST(ExpansionTest, PkChainsArePairwiseIncomparable) {
  // No P_j contains P_k for j != k — the reason no finite union is an MCR
  // (Proposition 5.1's engine).
  EngineContext ctx;
  ViewSet views = workloads::Example12Views();
  std::vector<Query> expansions;
  for (int k = 0; k <= 3; ++k) {
    auto exp = ExpandRewriting(workloads::Example12Pk(k), views);
    ASSERT_TRUE(exp.ok());
    expansions.push_back(std::move(exp).value());
  }
  for (size_t a = 0; a < expansions.size(); ++a) {
    for (size_t b = 0; b < expansions.size(); ++b) {
      if (a == b) continue;
      auto r = IsContained(ctx, expansions[a], expansions[b]);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_FALSE(r.value()) << "P_" << a << " in P_" << b;
    }
  }
}

}  // namespace
}  // namespace cqac
