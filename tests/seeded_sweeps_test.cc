// Parameterized property sweeps: each TEST_P instance runs one seeded draw,
// so failures identify the exact offending seed and shrinkage is trivial.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/containment/si_reduction.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/expansion.h"
#include "src/rewriting/rewrite_lsi.h"
#include "tests/support/mirror.h"

namespace cqac {
namespace {

class SeededSweep : public ::testing::TestWithParam<uint64_t> {};

// --- Containment: production procedure vs canonical databases. -------------
TEST_P(SeededSweep, ContainmentProceduresAgree) {
  EngineContext ctx;
  Rng rng(GetParam());
  for (int iter = 0; iter < 12; ++iter) {
    gen::QuerySpec spec;
    spec.num_subgoals = static_cast<int>(rng.Uniform(1, 3));
    spec.num_vars = 3;
    spec.ac_density = 0.9;
    spec.ac_mode = static_cast<gen::AcMode>(rng.Uniform(0, 5));
    spec.const_max = 6;
    spec.boolean_head = true;
    Query a = gen::RandomQuery(rng, spec);
    Query b = gen::RandomQuery(rng, spec);
    auto fast = IsContained(ctx, a, b);
    auto slow = IsContainedByCanonicalDatabases(a, b);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    ASSERT_EQ(fast.value(), slow.value())
        << "a = " << a.ToString() << "\nb = " << b.ToString();
  }
}

// --- Preprocessing preserves semantics on random databases. ----------------
TEST_P(SeededSweep, PreprocessPreservesAnswers) {
  EngineContext ctx;
  Rng rng(GetParam() * 31 + 5);
  gen::QuerySpec spec;
  spec.num_subgoals = 2;
  spec.num_vars = 4;
  spec.ac_density = 1.5;
  spec.ac_mode = gen::AcMode::kGeneral;
  spec.boolean_head = false;
  spec.head_arity = 2;
  Query q = gen::RandomQuery(rng, spec);
  Result<Query> p = Preprocess(q);
  gen::DatabaseSpec dbspec;
  dbspec.tuples_per_relation = 25;
  dbspec.value_max = 8;
  for (int d = 0; d < 3; ++d) {
    Database db = gen::RandomDatabase(rng, gen::SchemaOf(q), dbspec);
    Relation direct = EvaluateQuery(ctx, q, db).value();
    if (!p.ok()) {
      ASSERT_EQ(p.status().code(), StatusCode::kInconsistent);
      ASSERT_TRUE(direct.empty())
          << "inconsistent query produced answers: " << q.ToString();
      continue;
    }
    Relation processed = EvaluateQuery(ctx, p.value(), db).value();
    ASSERT_EQ(direct, processed) << q.ToString() << "\n-> "
                                 << p.value().ToString();
  }
}

// --- Rewriting soundness, symbolic and empirical. ---------------------------
TEST_P(SeededSweep, RewritingsSound) {
  EngineContext ctx;
  Rng rng(GetParam() * 97 + 1);
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

  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_TRUE(mcr.ok()) << mcr.status();
  std::map<std::string, int> schema = gen::SchemaOf(q);
  gen::DatabaseSpec dbspec;
  dbspec.tuples_per_relation = 15;
  for (const Query& d : mcr.value().disjuncts) {
    auto exp = ExpandRewriting(d, views);
    ASSERT_TRUE(exp.ok());
    // Preprocess may flag empty expansions, which are vacuously fine.
    auto c = IsContained(ctx, exp.value(), q);
    ASSERT_TRUE(c.ok()) << c.status();
    EXPECT_TRUE(c.value()) << d.ToString();
  }
  if (!mcr.value().disjuncts.empty()) {
    Database db = gen::RandomDatabase(rng, schema, dbspec);
    Database vdb = MaterializeViews(ctx, views, db).value();
    Relation truth = EvaluateQuery(ctx, q, db).value();
    Relation certain = EvaluateUnion(ctx, mcr.value(), vdb).value();
    for (const Tuple& t : certain)
      ASSERT_TRUE(truth.count(t)) << "unsound tuple " << TupleToString(t);
  }
}

// --- Theorem 5.1's reduction agrees with general containment. ---------------
TEST_P(SeededSweep, SiReductionAgrees) {
  EngineContext ctx;
  Rng rng(GetParam() * 13 + 7);
  for (int iter = 0; iter < 8; ++iter) {
    gen::QuerySpec spec;
    spec.num_subgoals = 2;
    spec.num_vars = 3;
    spec.ac_density = 1.0;
    spec.ac_mode = gen::AcMode::kCqacSi;
    spec.const_max = 6;
    spec.boolean_head = true;
    Query q1 = gen::RandomQuery(rng, spec);
    spec.ac_mode = gen::AcMode::kSi;
    Query q2 = gen::RandomQuery(rng, spec);
    auto red = IsContainedSiReduction(ctx, q2, q1);
    if (!red.ok()) continue;  // preprocessing changed the class; skip draw
    auto gen_result = IsContained(ctx, q2, q1);
    ASSERT_TRUE(gen_result.ok());
    ASSERT_EQ(red.value(), gen_result.value())
        << "q2 = " << q2.ToString() << "\nq1 = " << q1.ToString();
  }
}

// --- Mirror symmetry of containment. ----------------------------------------
TEST_P(SeededSweep, MirrorCommutesWithContainment) {
  EngineContext ctx;
  Rng rng(GetParam() * 3 + 11);
  gen::QuerySpec spec;
  spec.num_subgoals = 2;
  spec.num_vars = 3;
  spec.ac_density = 1.0;
  spec.ac_mode = gen::AcMode::kSi;
  spec.const_min = -4;
  spec.const_max = 4;
  spec.boolean_head = true;
  Query a = gen::RandomQuery(rng, spec);
  Query b = gen::RandomQuery(rng, spec);
  auto direct = IsContained(ctx, a, b);
  auto mirrored = IsContained(ctx, MirrorQuery(a), MirrorQuery(b));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(direct.value(), mirrored.value())
      << "a = " << a.ToString() << "\nb = " << b.ToString();
}

// --- Disjunction implication engines agree. ---------------------------------
TEST_P(SeededSweep, DisjunctionEnginesAgree) {
  Rng rng(GetParam() * 41 + 3);
  auto draw = [&rng]() {
    Term lhs = Term::Var(static_cast<int>(rng.Uniform(0, 2)));
    Term rhs = rng.Chance(0.5)
                   ? Term::Var(static_cast<int>(rng.Uniform(0, 2)))
                   : Term::Const(Value(Rational(rng.Uniform(0, 4))));
    if (rng.Chance(0.3)) std::swap(lhs, rhs);
    return Comparison(lhs, rng.Chance(0.5) ? CompOp::kLt : CompOp::kLe, rhs);
  };
  for (int iter = 0; iter < 15; ++iter) {
    std::vector<Comparison> premise;
    for (int i = 0, n = static_cast<int>(rng.Uniform(0, 2)); i < n; ++i)
      premise.push_back(draw());
    std::vector<std::vector<Comparison>> disjuncts;
    for (int i = 0, n = static_cast<int>(rng.Uniform(1, 3)); i < n; ++i)
      disjuncts.push_back({draw(), draw()});
    auto fast = ImpliesDisjunction(premise, disjuncts);
    auto slow = ImpliesDisjunctionByPreorders(premise, disjuncts);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(fast.value(), slow.value()) << "iteration " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededSweep,
                         ::testing::Range<uint64_t>(1, 21),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cqac
