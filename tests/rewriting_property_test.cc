// Cross-cutting property tests: on random workloads, every rewriting the
// engines emit is a contained rewriting, both symbolically (expansion
// contained in the query, Theorems 4.1) and empirically (answers over
// materialized views are a subset of the query's answers on every database).
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/gen/generators.h"
#include "src/ir/expansion.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

struct Workload {
  Query q;
  ViewSet views;
};

Workload DrawWorkload(Rng& rng, gen::AcMode query_mode,
                      gen::AcMode view_mode) {
  gen::QuerySpec qspec;
  qspec.num_subgoals = static_cast<int>(rng.Uniform(2, 3));
  qspec.num_predicates = 2;
  qspec.num_vars = 4;
  qspec.ac_density = 0.7;
  qspec.ac_mode = query_mode;
  qspec.const_min = 2;
  qspec.const_max = 9;
  qspec.boolean_head = rng.Chance(0.3);
  qspec.head_arity = 2;
  Query q = gen::RandomQuery(rng, qspec, "q");

  gen::ViewSpec vspec;
  vspec.num_views = static_cast<int>(rng.Uniform(2, 4));
  vspec.max_subgoals = 2;
  vspec.distinguished_prob = 0.75;
  vspec.ac_density = 0.5;
  vspec.ac_mode = view_mode;
  vspec.const_min = 2;
  vspec.const_max = 9;
  ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);
  return {std::move(q), std::move(views)};
}

// Empirically checks P(V(D)) subset of Q(D) on random databases.
void CheckEmpiricalContainment(const Query& q, const ViewSet& views,
                               const UnionQuery& rewritings, Rng& rng,
                               int databases) {
  EngineContext ctx;
  std::map<std::string, int> schema = gen::SchemaOf(q);
  for (const auto& [pred, arity] : gen::SchemaOf(views))
    schema.emplace(pred, arity);
  for (int d = 0; d < databases; ++d) {
    gen::DatabaseSpec spec;
    spec.tuples_per_relation = 12;
    spec.value_min = 0;
    spec.value_max = 11;
    Database db = gen::RandomDatabase(rng, schema, spec);
    auto vdb = MaterializeViews(ctx, views, db);
    ASSERT_TRUE(vdb.ok()) << vdb.status();
    auto q_ans = EvaluateQuery(ctx, q, db);
    ASSERT_TRUE(q_ans.ok()) << q_ans.status();
    auto p_ans = EvaluateUnion(ctx, rewritings, vdb.value());
    ASSERT_TRUE(p_ans.ok()) << p_ans.status();
    for (const Tuple& t : p_ans.value()) {
      ASSERT_TRUE(q_ans.value().count(t))
          << "unsound rewriting: tuple " << TupleToString(t)
          << "\nquery: " << q.ToString() << "\nviews:\n"
          << views.ToString() << "\nrewritings:\n"
          << rewritings.ToString();
    }
  }
}

TEST(RewritingPropertyTest, RewriteLsiSoundOnRandomLsiWorkloads) {
  Rng rng(1001);
  int emitted = 0;
  for (int iter = 0; iter < 40; ++iter) {
    Workload w = DrawWorkload(rng, gen::AcMode::kLsi, gen::AcMode::kSi);
    Budget budget;
    budget.max_mappings = 2000;
    EngineContext ctx(budget);
    RewriteOptions opts;
    opts.max_ac_alternatives = 32;
    auto mcr = RewriteLsiQuery(ctx, w.q, w.views, opts);
    if (!mcr.ok()) {
      ASSERT_EQ(mcr.status().code(), StatusCode::kResourceExhausted)
          << mcr.status();
      continue;
    }
    for (const Query& d : mcr.value().disjuncts) {
      auto exp = ExpandRewriting(d, w.views);
      ASSERT_TRUE(exp.ok()) << exp.status();
      auto c = IsContained(ctx, exp.value(), w.q);
      ASSERT_TRUE(c.ok()) << c.status();
      EXPECT_TRUE(c.value())
          << "query: " << w.q.ToString() << "\nrewriting: " << d.ToString();
    }
    emitted += static_cast<int>(mcr.value().disjuncts.size());
    if (!mcr.value().disjuncts.empty())
      CheckEmpiricalContainment(w.q, w.views, mcr.value(), rng, 2);
  }
  // The generator must actually exercise the machinery.
  EXPECT_GT(emitted, 10);
}

TEST(RewritingPropertyTest, RewriteLsiSoundOnRandomRsiWorkloads) {
  EngineContext ctx;
  Rng rng(2002);
  for (int iter = 0; iter < 25; ++iter) {
    Workload w = DrawWorkload(rng, gen::AcMode::kRsi, gen::AcMode::kSi);
    auto mcr = RewriteLsiQuery(ctx, w.q, w.views);
    if (!mcr.ok()) continue;
    if (!mcr.value().disjuncts.empty())
      CheckEmpiricalContainment(w.q, w.views, mcr.value(), rng, 2);
  }
}

TEST(RewritingPropertyTest, BucketSoundOnRandomWorkloads) {
  Rng rng(3003);
  for (int iter = 0; iter < 25; ++iter) {
    Workload w = DrawWorkload(rng, gen::AcMode::kSi, gen::AcMode::kSi);
    Budget budget;
    budget.max_mappings = 2000;
    EngineContext ctx(budget);
    auto bucket = BucketRewrite(ctx, w.q, w.views);
    if (!bucket.ok()) {
      ASSERT_EQ(bucket.status().code(), StatusCode::kResourceExhausted)
          << bucket.status();
      continue;
    }
    if (!bucket.value().disjuncts.empty())
      CheckEmpiricalContainment(w.q, w.views, bucket.value(), rng, 2);
  }
}

TEST(RewritingPropertyTest, RewriteLsiSubsumesBucketOnLsiWorkloads) {
  // Completeness (relative): every bucket rewriting is contained in the
  // RewriteLSIQuery MCR (Theorem 4.2's guarantee, tested via the union).
  EngineContext ctx;
  Rng rng(4004);
  int comparisons = 0;
  for (int iter = 0; iter < 20; ++iter) {
    Workload w = DrawWorkload(rng, gen::AcMode::kLsi, gen::AcMode::kSi);
    auto mcr = RewriteLsiQuery(ctx, w.q, w.views);
    auto bucket = BucketRewrite(ctx, w.q, w.views);
    if (!mcr.ok() || !bucket.ok()) continue;
    for (const Query& b : bucket.value().disjuncts) {
      auto covered = IsContainedInUnion(ctx, b, mcr.value());
      ASSERT_TRUE(covered.ok()) << covered.status();
      EXPECT_TRUE(covered.value())
          << "bucket rewriting not covered by the MCR\nquery: "
          << w.q.ToString() << "\nviews:\n"
          << w.views.ToString() << "\nbucket: " << b.ToString()
          << "\nmcr:\n"
          << mcr.value().ToString();
      ++comparisons;
    }
  }
  EXPECT_GT(comparisons, 5);
}

}  // namespace
}  // namespace cqac
