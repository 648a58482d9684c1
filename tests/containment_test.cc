#include "src/containment/containment.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/gen/generators.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

bool Contained(const std::string& q2, const std::string& q1) {
  EngineContext ctx;
  auto r = IsContained(ctx, MustParseQuery(q2), MustParseQuery(q1));
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOr(false);
}

TEST(ContainmentTest, PureCqs) {
  EXPECT_TRUE(Contained("q(X, Y) :- e(X, Y), e(Y, X)", "q(X, Y) :- e(X, Y)"));
  EXPECT_FALSE(Contained("q(X, Y) :- e(X, Y)", "q(X, Y) :- e(X, Y), e(Y, X)"));
  EXPECT_TRUE(Contained("q(X) :- e(X, X)", "q(X) :- e(X, Y)"));
}

TEST(ContainmentTest, LsiTheorem23Examples) {
  EXPECT_TRUE(Contained("q(X) :- r(X), X < 3", "q(X) :- r(X), X < 4"));
  EXPECT_FALSE(Contained("q(X) :- r(X), X < 4", "q(X) :- r(X), X < 3"));
  EXPECT_TRUE(Contained("q(X) :- r(X), X < 3", "q(X) :- r(X), X <= 3"));
  EXPECT_FALSE(Contained("q(X) :- r(X), X <= 3", "q(X) :- r(X), X < 3"));
  // Q2 with general ACs, Q1 LSI (the Theorem 2.3 setting).
  EXPECT_TRUE(Contained("q(X) :- r(X, Y), X <= Y, Y < 2",
                        "q(X) :- r(X, Y), X < 4"));
}

TEST(ContainmentTest, Example51TwoMappingsNeeded) {
  EngineContext ctx;
  auto r = IsContained(ctx, workloads::Example51Q2(), workloads::Example51Q1());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());
  // The reverse direction fails.
  auto rev =
      IsContained(ctx, workloads::Example51Q1(), workloads::Example51Q2());
  ASSERT_TRUE(rev.ok());
  EXPECT_FALSE(rev.value());
}

TEST(ContainmentTest, Example51ChainsEvenLengthContained) {
  EngineContext ctx;
  const Query q1 = workloads::Example51Q1();
  for (int n = 2; n <= 8; n += 2) {
    Query chain = workloads::Example51Chain(n, Rational(6), Rational(7));
    auto r = IsContained(ctx, chain, q1);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r.value()) << "even chain length " << n;
  }
  // Odd-length chains are not contained (the coupling parity breaks).
  for (int n = 3; n <= 7; n += 2) {
    Query chain = workloads::Example51Chain(n, Rational(6), Rational(7));
    auto r = IsContained(ctx, chain, q1);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r.value()) << "odd chain length " << n;
  }
}

TEST(ContainmentTest, Example51BoundsMatter) {
  EngineContext ctx;
  const Query q1 = workloads::Example51Q1();
  // Ends must actually imply the query's bounds: > 4 does not imply > 5.
  Query weak = workloads::Example51Chain(4, Rational(4), Rational(7));
  auto r = IsContained(ctx, weak, q1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
}

TEST(ContainmentTest, Section2EquivalentPairWithDifferentAcs) {
  // Queries with the same subgoals can be equivalent under different ACs
  // because the ACs are equivalent after equality collapse.
  EngineContext ctx;
  Query a = MustParseQuery("q(X) :- r(X, Y), X <= Y, Y <= X, X < 5");
  Query b = MustParseQuery("q(X) :- r(X, X), X < 5");
  auto r = IsEquivalent(ctx, a, b);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());
}

TEST(ContainmentTest, InconsistentQueryIsContainedEverywhere) {
  EXPECT_TRUE(Contained("q(X) :- r(X), X < 1, X > 2", "q(X) :- s(X)"));
  EXPECT_FALSE(Contained("q(X) :- s(X)", "q(X) :- r(X), X < 1, X > 2"));
}

TEST(ContainmentTest, ArityMismatchRejected) {
  EngineContext ctx;
  auto r = IsContained(ctx, MustParseQuery("q(X) :- r(X)"),
                       MustParseQuery("q(X, Y) :- r(X), s(Y)"));
  EXPECT_FALSE(r.ok());
}

TEST(ContainmentTest, EqualityCollapseBeforeMapping) {
  // Containment that only works after collapsing implied equalities.
  EXPECT_TRUE(Contained("q(X) :- e(X, Y), X <= Y, Y <= X",
                        "q(X) :- e(X, X)"));
  EXPECT_TRUE(Contained("q(X) :- e(X, X)",
                        "q(X) :- e(X, Y), X <= Y, Y <= X"));
}

TEST(ContainmentTest, GeneralAcs) {
  // Variable-variable comparisons on both sides.
  EXPECT_TRUE(Contained("q(X, Y) :- e(X, Y), X < Y",
                        "q(X, Y) :- e(X, Y), X <= Y"));
  EXPECT_FALSE(Contained("q(X, Y) :- e(X, Y), X <= Y",
                         "q(X, Y) :- e(X, Y), X < Y"));
}

TEST(ContainmentTest, DisjunctionRequiredEvenForCqRhs) {
  // A union-style argument: q2 needs two mappings into q1's single pattern
  // depending on the order of A and B — classic Theorem 2.1 necessity.
  EngineContext ctx;
  Query q1 = MustParseQuery("q() :- e(X, Y), X <= Y");
  Query q2 = MustParseQuery("q() :- e(A, B), e(B, A)");
  auto r = IsContained(ctx, q2, q1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());  // either A <= B or B <= A holds in a total order
}

TEST(ContainmentTest, CanonicalDatabaseProcedureAgreesOnPaperCases) {
  EngineContext ctx;
  struct Case {
    Query q2;
    Query q1;
  };
  std::vector<Case> cases;
  cases.push_back({workloads::Example51Q2(), workloads::Example51Q1()});
  cases.push_back({workloads::Example51Q1(), workloads::Example51Q2()});
  cases.push_back({MustParseQuery("q() :- e(A, B), e(B, A)"),
                   MustParseQuery("q() :- e(X, Y), X <= Y")});
  cases.push_back({MustParseQuery("q(X) :- r(X), X < 3"),
                   MustParseQuery("q(X) :- r(X), X < 4")});
  cases.push_back({MustParseQuery("q(X) :- r(X), X < 4"),
                   MustParseQuery("q(X) :- r(X), X < 3")});
  for (size_t i = 0; i < cases.size(); ++i) {
    auto fast = IsContained(ctx, cases[i].q2, cases[i].q1);
    auto slow = IsContainedByCanonicalDatabases(cases[i].q2, cases[i].q1);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    EXPECT_EQ(fast.value(), slow.value()) << "case " << i;
  }
}

// Property test: the homomorphism+implication procedure (Theorem 2.1) and
// the canonical-database procedure agree on random CQAC pairs.
TEST(ContainmentTest, ProceduresAgreeOnRandomPairs) {
  EngineContext ctx;
  Rng rng(42);
  int agreements = 0;
  for (int iter = 0; iter < 120; ++iter) {
    gen::QuerySpec spec;
    spec.num_subgoals = static_cast<int>(rng.Uniform(1, 3));
    spec.num_predicates = 2;
    spec.num_vars = 3;
    spec.ac_density = 0.8;
    spec.ac_mode = static_cast<gen::AcMode>(rng.Uniform(0, 5));
    spec.const_min = 0;
    spec.const_max = 6;
    spec.boolean_head = rng.Chance(0.5);
    spec.head_arity = 1;
    Query a = gen::RandomQuery(rng, spec, "q");
    Query b = gen::RandomQuery(rng, spec, "q");
    if (a.head().args.size() != b.head().args.size()) continue;

    auto fast = IsContained(ctx, a, b);
    auto slow = IsContainedByCanonicalDatabases(a, b);
    ASSERT_TRUE(fast.ok()) << fast.status() << "\n"
                           << a.ToString() << "\n"
                           << b.ToString();
    ASSERT_TRUE(slow.ok()) << slow.status();
    ASSERT_EQ(fast.value(), slow.value())
        << "a = " << a.ToString() << "\nb = " << b.ToString();
    ++agreements;
  }
  EXPECT_GT(agreements, 50);
}

// The LSI fast path agrees with the general procedure on LSI inputs.
TEST(ContainmentTest, FastPathAgreesWithGeneralOnLsi) {
  EngineContext ctx;
  Rng rng(7);
  for (int iter = 0; iter < 150; ++iter) {
    gen::QuerySpec spec;
    spec.num_subgoals = static_cast<int>(rng.Uniform(1, 3));
    spec.num_vars = 3;
    spec.ac_density = 1.0;
    spec.ac_mode = gen::AcMode::kLsi;
    spec.const_max = 6;
    spec.boolean_head = true;
    Query a = gen::RandomQuery(rng, spec, "q");
    Query b = gen::RandomQuery(rng, spec, "q");

    ContainmentOptions general;
    general.use_single_mapping_fast_path = false;
    auto fast = IsContained(ctx, a, b);
    auto slow = IsContained(ctx, a, b, general);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    ASSERT_EQ(fast.value(), slow.value())
        << "a = " << a.ToString() << "\nb = " << b.ToString();
  }
}

TEST(ContainmentTest, UnionContainment) {
  EngineContext ctx;
  UnionQuery u;
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X < 3"));
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X > 1"));
  // X < 3 v X > 1 covers everything.
  auto r = IsContainedInUnion(ctx, MustParseQuery("q(X) :- r(X)"), u);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());

  UnionQuery gap;
  gap.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X < 1"));
  gap.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X > 3"));
  auto r2 = IsContainedInUnion(ctx, MustParseQuery("q(X) :- r(X)"), gap);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());

  // No disjunct alone contains the query (Sagiv-Yannakakis does not apply
  // once comparisons are present).
  for (const Query& d : u.disjuncts) {
    auto one = IsContained(ctx, MustParseQuery("q(X) :- r(X)"), d);
    ASSERT_TRUE(one.ok());
    EXPECT_FALSE(one.value());
  }
}

TEST(ContainmentTest, UnionIsContainedDirection) {
  EngineContext ctx;
  UnionQuery u;
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X < 2"));
  u.disjuncts.push_back(MustParseQuery("q(X) :- r(X), X < 3"));
  auto r = UnionIsContained(ctx, u, MustParseQuery("q(X) :- r(X), X < 4"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());
  auto r2 = UnionIsContained(ctx, u, MustParseQuery("q(X) :- r(X), X < 2.5"));
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());
}

}  // namespace
}  // namespace cqac
