#include "src/containment/si_reduction.h"

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/gen/generators.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(SiFormTest, ExtractionAndNames) {
  Query q = MustParseQuery("q() :- r(X, Y), X < 8, Y >= 5");
  SiForm upper = SiFormOf(q.comparisons()[0]);
  EXPECT_FALSE(upper.lower);
  EXPECT_TRUE(upper.strict);
  EXPECT_EQ(upper.c, Rational(8));
  EXPECT_EQ(upper.PredicateSuffix(), "lt_8");

  SiForm lower = SiFormOf(q.comparisons()[1]);
  EXPECT_TRUE(lower.lower);
  EXPECT_FALSE(lower.strict);
  EXPECT_EQ(lower.PredicateSuffix(), "ge_5");
}

TEST(SiFormTest, NameEncodingOfFractionsAndNegatives) {
  Query q = MustParseQuery("q() :- r(X, Y), X < 7/2, Y > -3");
  EXPECT_EQ(SiFormOf(q.comparisons()[0]).PredicateSuffix(), "lt_7d2");
  EXPECT_EQ(SiFormOf(q.comparisons()[1]).PredicateSuffix(), "gt_m3");
}

TEST(SiFormTest, Coupling) {
  auto form = [](bool lower, bool strict, int64_t c) {
    SiForm f;
    f.lower = lower;
    f.strict = strict;
    f.c = Rational(c);
    return f;
  };
  // (X > 5) v (X < 8): tautology.
  EXPECT_TRUE(FormsCouple(form(true, true, 5), form(false, true, 8)));
  // (X > 8) v (X < 5): not.
  EXPECT_FALSE(FormsCouple(form(true, true, 8), form(false, true, 5)));
  // (X >= 5) v (X <= 5): tautology; (X > 5) v (X < 5): not.
  EXPECT_TRUE(FormsCouple(form(true, false, 5), form(false, false, 5)));
  EXPECT_FALSE(FormsCouple(form(true, true, 5), form(false, true, 5)));
  // (X >= 5) v (X < 5): tautology.
  EXPECT_TRUE(FormsCouple(form(true, false, 5), form(false, true, 5)));
  // Same direction never couples.
  EXPECT_FALSE(FormsCouple(form(true, true, 1), form(true, true, 9)));
}

TEST(SiReductionTest, PcqConstruction) {
  // Q2^CQ of Example 5.1: U_gt_5(A) and U_lt_8(E) added.
  EngineContext ctx;
  Query pcq_q = workloads::Example51Q2();
  auto pcq = BuildPcq(ctx, pcq_q, workloads::Example51Q1());
  ASSERT_TRUE(pcq.ok()) << pcq.status();
  const Query& p = pcq.value();
  EXPECT_TRUE(p.IsConjunctiveOnly());
  int u_atoms = 0;
  for (const Atom& a : p.body())
    if (a.predicate.rfind("U_", 0) == 0) ++u_atoms;
  EXPECT_EQ(u_atoms, 2);
  // e-atoms preserved.
  int e_atoms = 0;
  for (const Atom& a : p.body())
    if (a.predicate == "e") ++e_atoms;
  EXPECT_EQ(e_atoms, 4);
}

TEST(SiReductionTest, QdatalogShape) {
  auto prog = BuildQdatalog(workloads::Example51Q1());
  ASSERT_TRUE(prog.ok()) << prog.status();
  const Program& p = prog.value();
  // 1 query rule + 2 mapping rules + 2 coupling rules + 2 init rules.
  EXPECT_EQ(p.rules().size(), 7u);
  EXPECT_TRUE(p.IsRecursive());
  EXPECT_TRUE(p.Validate().ok()) << p.ToString();
}

TEST(SiReductionTest, QdatalogMatchesSection53RunningExample) {
  // Section 5.3 lists the program for Q1() :- e(X,Y), e(Y,Z), X>5, Z<8:
  //   query rule, two mapping rules, two coupling rules (5 < 8 couples),
  //   two initialization rules.
  Program p = BuildQdatalog(workloads::Example51Q1()).value();
  std::string text = p.ToString();
  // Query rule carries both I-atoms.
  EXPECT_NE(text.find("I_gt_5(X)"), std::string::npos) << text;
  EXPECT_NE(text.find("I_lt_8(Z)"), std::string::npos) << text;
  // Mapping rule for the pending X>5: head J_gt_5(X), body keeps I_lt_8(Z).
  bool mapping_gt = false, mapping_lt = false;
  for (const Rule& r : p.rules()) {
    if (r.head().predicate == "J_gt_5") {
      mapping_gt = true;
      bool keeps_other = false;
      for (const Atom& a : r.body())
        if (a.predicate == "I_lt_8") keeps_other = true;
      EXPECT_TRUE(keeps_other) << r.ToString();
      EXPECT_EQ(r.VarName(r.head().args[0].var()), "X");
    }
    if (r.head().predicate == "J_lt_8") {
      mapping_lt = true;
      EXPECT_EQ(r.VarName(r.head().args[0].var()), "Z");
    }
  }
  EXPECT_TRUE(mapping_gt);
  EXPECT_TRUE(mapping_lt);
  // Coupling rules in both directions.
  EXPECT_NE(text.find("I_gt_5(W) :- J_lt_8(W)"), std::string::npos) << text;
  EXPECT_NE(text.find("I_lt_8(W) :- J_gt_5(W)"), std::string::npos) << text;
  // Initialization rules.
  EXPECT_NE(text.find("I_gt_5(A) :- U_gt_5(A)"), std::string::npos) << text;
  EXPECT_NE(text.find("I_lt_8(A) :- U_lt_8(A)"), std::string::npos) << text;
}

TEST(SiReductionTest, NoCouplingRulesWhenConstantsDoNotCouple) {
  // X > 8, Z < 5: (x > 8) v (x < 5) is not a tautology, so the program has
  // no coupling rules and the recursion cannot fire.
  Query q = MustParseQuery("q() :- e(X, Y), e(Y, Z), X > 8, Z < 5");
  Program p = BuildQdatalog(q).value();
  for (const Rule& r : p.rules()) {
    if (r.head().predicate.rfind("I_", 0) != 0) continue;
    for (const Atom& a : r.body())
      EXPECT_NE(a.predicate.rfind("J_", 0), 0u) << r.ToString();
  }
}

TEST(SiReductionTest, Theorem51OnExample51) {
  EngineContext ctx;
  auto r = IsContainedSiReduction(ctx, workloads::Example51Q2(),
                                  workloads::Example51Q1());
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r.value());
}

TEST(SiReductionTest, Theorem51OnChains) {
  EngineContext ctx;
  const Query q1 = workloads::Example51Q1();
  for (int n = 2; n <= 10; n += 2) {
    Query chain = workloads::Example51Chain(n, Rational(6), Rational(7));
    auto r = IsContainedSiReduction(ctx, chain, q1);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r.value()) << "even chain " << n;
  }
  for (int n = 3; n <= 9; n += 2) {
    Query chain = workloads::Example51Chain(n, Rational(6), Rational(7));
    auto r = IsContainedSiReduction(ctx, chain, q1);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r.value()) << "odd chain " << n;
  }
  // Weak lower bound: not contained.
  auto weak = IsContainedSiReduction(
      ctx, workloads::Example51Chain(4, Rational(4), Rational(7)), q1);
  ASSERT_TRUE(weak.ok());
  EXPECT_FALSE(weak.value());
}

TEST(SiReductionTest, RequiresCqacSi) {
  // Two LSI + two RSI comparisons: not CQAC-SI.
  EngineContext ctx;
  Query bad = MustParseQuery(
      "q() :- r(A, B, C, D), A < 1, B < 2, C > 3, D > 4");
  Query si = MustParseQuery("q() :- r(A, B, C, D), A > 1");
  EXPECT_FALSE(BuildQdatalog(bad).ok());
  EXPECT_FALSE(IsContainedSiReduction(ctx, si, bad).ok());
  // Non-SI Q2 also rejected.
  Query varvar = MustParseQuery("q() :- r(A, B, C, D), A <= B");
  EXPECT_FALSE(IsContainedSiReduction(ctx, varvar, si).ok());
}

// Property test (Theorem 5.1): on random CQAC-SI pairs the reduction agrees
// with the general containment procedure.
TEST(SiReductionTest, ReductionAgreesWithGeneralContainment) {
  EngineContext ctx;
  Rng rng(20020601);  // PODS 2002
  int tested = 0;
  for (int iter = 0; iter < 150; ++iter) {
    gen::QuerySpec spec;
    spec.num_subgoals = static_cast<int>(rng.Uniform(1, 3));
    spec.num_predicates = 2;
    spec.num_vars = 3;
    spec.ac_density = 1.0;
    spec.ac_mode = gen::AcMode::kCqacSi;
    spec.const_min = 0;
    spec.const_max = 6;
    spec.boolean_head = true;
    Query q1 = gen::RandomQuery(rng, spec, "q");
    spec.ac_mode = gen::AcMode::kSi;
    Query q2 = gen::RandomQuery(rng, spec, "q");

    auto reduction = IsContainedSiReduction(ctx, q2, q1);
    if (!reduction.ok()) {
      // Preprocessing may reveal the query is not CQAC-SI (e.g. equality
      // collapse) or inconsistent; skip those draws.
      continue;
    }
    auto general = IsContained(ctx, q2, q1);
    ASSERT_TRUE(general.ok()) << general.status();
    ASSERT_EQ(reduction.value(), general.value())
        << "q2 = " << q2.ToString() << "\nq1 = " << q1.ToString();
    ++tested;
  }
  EXPECT_GT(tested, 60);
}

}  // namespace
}  // namespace cqac
