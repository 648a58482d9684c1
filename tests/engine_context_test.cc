// EngineContext behavior: interning identifies queries up to renaming, the
// decision cache changes cost but never answers, budgets surface as clean
// kResourceExhausted statuses, and the cache honors its byte bound.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/containment/containment.h"
#include "src/engine/context.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

TEST(EngineContextTest, InternDeduplicatesUpToRenaming) {
  EngineContext ctx;
  Query a = MustParseQuery("q(X) :- r(X, Y), X < 5");
  Query renamed = MustParseQuery("q(U) :- r(U, V), U < 5");
  Query different = MustParseQuery("q(X) :- r(X, Y), X < 6");

  InternedQuery ia = ctx.Intern(a);
  InternedQuery ib = ctx.Intern(renamed);
  InternedQuery ic = ctx.Intern(different);
  EXPECT_EQ(ia.id, ib.id);
  EXPECT_EQ(ia.fingerprint, ib.fingerprint);
  EXPECT_NE(ia.id, ic.id);
  EXPECT_EQ(ctx.stats().intern_requests, 3u);
  EXPECT_EQ(ctx.stats().queries_interned, 2u);
}

TEST(EngineContextTest, ContainmentCacheHitsOnRenamedRepeat) {
  EngineContext ctx;
  Query q2 = MustParseQuery("p(X) :- r(X, Y), X < 3");
  Query q1 = MustParseQuery("q(X) :- r(X, Y), X < 5");
  auto first = IsContained(ctx, q2, q1);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value());
  EXPECT_EQ(ctx.stats().containment_cache_hits, 0u);

  // The same decision, under different variable names, must be a hit.
  Query q2r = MustParseQuery("p(A) :- r(A, B), A < 3");
  Query q1r = MustParseQuery("q(C) :- r(C, D), C < 5");
  auto second = IsContained(ctx, q2r, q1r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(ctx.stats().containment_cache_hits, 1u);
}

TEST(EngineContextTest, CachingDisabledStillCorrect) {
  Budget budget;
  budget.max_cache_bytes = 0;
  EngineContext ctx(budget);
  Query q2 = MustParseQuery("p(X) :- r(X, Y), X < 3");
  Query q1 = MustParseQuery("q(X) :- r(X, Y), X < 5");
  for (int i = 0; i < 3; ++i) {
    auto r = IsContained(ctx, q2, q1);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value());
  }
  EXPECT_EQ(ctx.stats().containment_cache_hits, 0u);
  EXPECT_EQ(ctx.cache_entries(), 0u);
}

TEST(EngineContextTest, CachedAndUncachedAgreeOnRandomWorkloads) {
  // The memo must change cost only, never answers: run every random
  // containment decision through a shared caching context (twice, so the
  // second round is all hits) and through a cache-disabled context, and
  // require identical outcomes.
  Rng rng(9090);
  EngineContext cached;
  Budget no_cache;
  no_cache.max_cache_bytes = 0;
  EngineContext uncached(no_cache);

  std::vector<std::pair<Query, Query>> pairs;
  for (int iter = 0; iter < 60; ++iter) {
    gen::QuerySpec spec;
    spec.num_subgoals = static_cast<int>(rng.Uniform(1, 3));
    spec.num_predicates = 2;
    spec.num_vars = 4;
    spec.ac_density = 0.7;
    spec.ac_mode = gen::AcMode::kGeneral;
    spec.boolean_head = true;
    pairs.emplace_back(gen::RandomQuery(rng, spec),
                       gen::RandomQuery(rng, spec));
  }

  std::vector<Result<bool>> first_round;
  for (const auto& [q2, q1] : pairs)
    first_round.push_back(IsContained(cached, q2, q1));
  for (size_t i = 0; i < pairs.size(); ++i) {
    Result<bool> again = IsContained(cached, pairs[i].first, pairs[i].second);
    Result<bool> plain =
        IsContained(uncached, pairs[i].first, pairs[i].second);
    ASSERT_EQ(first_round[i].ok(), again.ok());
    ASSERT_EQ(first_round[i].ok(), plain.ok());
    if (!first_round[i].ok()) continue;
    EXPECT_EQ(first_round[i].value(), again.value())
        << "cache hit changed a containment answer\nq2: "
        << pairs[i].first.ToString() << "\nq1: " << pairs[i].second.ToString();
    EXPECT_EQ(first_round[i].value(), plain.value())
        << "caching changed a containment answer\nq2: "
        << pairs[i].first.ToString() << "\nq1: " << pairs[i].second.ToString();
  }
  EXPECT_GT(cached.stats().containment_cache_hits, 0u);
  EXPECT_EQ(uncached.stats().containment_cache_hits, 0u);
}

TEST(EngineContextTest, HomomorphismBudgetSurfacesCleanly) {
  std::string body;
  for (int i = 0; i < 7; ++i)
    body += (i ? ", " : "") + std::string("e(X") + std::to_string(i) +
            ", Y" + std::to_string(i) + ")";
  Query big = MustParseQuery("q() :- " + body + ", X0 < Y0");
  Query small = MustParseQuery("q() :- e(A, B), e(C, D), A < D");
  Budget budget;
  budget.max_homomorphisms = 2;
  EngineContext ctx(budget);
  ContainmentOptions opts;
  opts.use_single_mapping_fast_path = false;
  auto r = IsContained(ctx, big, small, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(ctx.stats().budget_exhaustions, 0u);
  // The failed decision must not be memoized.
  EXPECT_EQ(ctx.cache_entries(), 0u);
}

TEST(EngineContextTest, MappingBudgetSurfacesCleanly) {
  Query q = MustParseQuery("q() :- e(X0, X1), e(X1, X2), e(X2, X3)");
  ViewSet views(MustParseRules(
      "v1(A, B) :- e(A, B).\n"
      "v2(A, B) :- e(A, B).\n"
      "v3(A, B) :- e(A, B)."));
  Budget budget;
  budget.max_mappings = 2;
  EngineContext ctx(budget);
  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_FALSE(mcr.ok());
  EXPECT_EQ(mcr.status().code(), StatusCode::kResourceExhausted);

  EngineContext bctx(budget);
  auto bucket = BucketRewrite(bctx, q, views);
  ASSERT_FALSE(bucket.ok());
  EXPECT_EQ(bucket.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineContextTest, ExpiredDeadlineSurfacesCleanly) {
  Budget budget = Budget::WithTimeout(std::chrono::milliseconds(0));
  // Ensure the deadline is strictly in the past regardless of clock
  // granularity.
  budget.deadline = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(10);
  EngineContext ctx(budget);
  Query q = MustParseQuery("q() :- e(X0, X1), e(X1, X2), e(X2, X3)");
  ViewSet views(MustParseRules("v1(A, B) :- e(A, B)."));
  auto mcr = RewriteLsiQuery(ctx, q, views);
  ASSERT_FALSE(mcr.ok());
  EXPECT_EQ(mcr.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineContextTest, CacheHonorsByteBudget) {
  Budget budget;
  budget.max_cache_bytes = 4096;
  EngineContext ctx(budget);
  Rng rng(777);
  gen::QuerySpec spec;
  spec.num_subgoals = 2;
  spec.num_predicates = 3;
  spec.num_vars = 4;
  spec.ac_density = 1.0;
  spec.ac_mode = gen::AcMode::kSi;
  spec.boolean_head = true;
  for (int iter = 0; iter < 150; ++iter) {
    Query q2 = gen::RandomQuery(rng, spec);
    Query q1 = gen::RandomQuery(rng, spec);
    auto r = IsContained(ctx, q2, q1);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_LE(ctx.cache_bytes(), budget.max_cache_bytes);
  }
  // 150 distinct decisions cannot fit in 4 KiB: eviction or flush happened.
  EXPECT_GT(ctx.stats().cache_evictions + ctx.stats().cache_flushes, 0u);
}

TEST(EngineContextTest, ZeroCacheBytesDisablesCaching) {
  Budget budget;
  budget.max_cache_bytes = 0;
  EngineContext ctx(budget);
  EXPECT_FALSE(ctx.caching_enabled());
  Query q2 = MustParseQuery("p(X) :- r(X, Y), X < 3");
  Query q1 = MustParseQuery("q(X) :- r(X, Y), X < 5");
  for (int i = 0; i < 2; ++i) {
    auto r = IsContained(ctx, q2, q1);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value());
  }
  EXPECT_EQ(ctx.stats().containment_cache_hits, 0u);
  EXPECT_EQ(ctx.cache_bytes(), 0u);
}

TEST(EngineContextTest, StatsToStringMentionsCounters) {
  EngineContext ctx;
  Query q2 = MustParseQuery("p(X) :- r(X, Y), X < 3");
  Query q1 = MustParseQuery("q(X) :- r(X, Y), X < 5");
  ASSERT_TRUE(IsContained(ctx, q2, q1).ok());
  std::string s = ctx.ToString();
  EXPECT_NE(s.find("containment"), std::string::npos);
  EXPECT_NE(s.find("cache footprint"), std::string::npos);
}

}  // namespace
}  // namespace cqac
