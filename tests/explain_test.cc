#include "src/containment/explain.h"

#include <gtest/gtest.h>

#include "src/containment/containment.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(ExplainTest, SingleMappingCase) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, MustParseQuery("q(X) :- r(X), X < 3"),
                              MustParseQuery("q(X) :- r(X), X < 4"));
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e.value().contained);
  ASSERT_EQ(e.value().mappings.size(), 1u);
  EXPECT_TRUE(e.value().mappings[0].directly_implied);
  EXPECT_NE(e.value().ToString().find("CONTAINED"), std::string::npos);
}

TEST(ExplainTest, CouplingCaseExample51) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, workloads::Example51Q2(),
                              workloads::Example51Q1());
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e.value().contained);
  EXPECT_EQ(e.value().mappings.size(), 3u);  // three chain mappings
  // No mapping suffices alone — the narrative reports the joint argument.
  for (const MappingEvidence& m : e.value().mappings)
    EXPECT_FALSE(m.directly_implied);
  EXPECT_NE(e.value().narrative.find("no single mapping"),
            std::string::npos)
      << e.value().narrative;
}

TEST(ExplainTest, NoMappingCase) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, MustParseQuery("q() :- s(X)"),
                              MustParseQuery("q() :- r(X)"));
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e.value().contained);
  EXPECT_NE(e.value().narrative.find("no containment mapping"),
            std::string::npos);
}

TEST(ExplainTest, MappingsExistButAcsFail) {
  EngineContext ctx;
  auto e = ExplainContainment(ctx, MustParseQuery("q(X) :- r(X), X < 5"),
                              MustParseQuery("q(X) :- r(X), X < 3"));
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(e.value().contained);
  ASSERT_EQ(e.value().mappings.size(), 1u);
  EXPECT_FALSE(e.value().mappings[0].directly_implied);
  EXPECT_NE(e.value().narrative.find("Theorem 2.1 fails"),
            std::string::npos);
}

TEST(ExplainTest, InconsistentSides) {
  EngineContext ctx;
  auto empty_in = ExplainContainment(
      ctx, MustParseQuery("q(X) :- r(X), X < 1, X > 2"),
      MustParseQuery("q(X) :- s(X)"));
  ASSERT_TRUE(empty_in.ok());
  EXPECT_TRUE(empty_in.value().contained);
  EXPECT_NE(empty_in.value().narrative.find("unsatisfiable"),
            std::string::npos);

  auto into_empty = ExplainContainment(
      ctx, MustParseQuery("q(X) :- s(X)"),
      MustParseQuery("q(X) :- r(X), X < 1, X > 2"));
  ASSERT_TRUE(into_empty.ok());
  EXPECT_FALSE(into_empty.value().contained);
}

TEST(ExplainTest, VerdictAlwaysMatchesIsContained) {
  std::vector<std::pair<std::string, std::string>> cases = {
      {"q(X) :- r(X), X < 3", "q(X) :- r(X), X <= 3"},
      {"q(X) :- r(X), X <= 3", "q(X) :- r(X), X < 3"},
      {"q() :- e(A, B), e(B, A)", "q() :- e(X, Y), X <= Y"},
      {"q(X) :- e(X, X)", "q(X) :- e(X, Y)"},
  };
  for (const auto& [a, b] : cases) {
    // Separate contexts: explain must not read the verdict off the memo.
    EngineContext verdict_ctx, explain_ctx;
    auto verdict =
        IsContained(verdict_ctx, MustParseQuery(a), MustParseQuery(b));
    auto explained =
        ExplainContainment(explain_ctx, MustParseQuery(a), MustParseQuery(b));
    ASSERT_TRUE(verdict.ok());
    ASSERT_TRUE(explained.ok());
    EXPECT_EQ(verdict.value(), explained.value().contained) << a;
  }
}

TEST(ExplainTest, RunsUnderTheCallersContext) {
  // The containment decision and the mapping enumeration behind an
  // explanation are charged to the caller's context.
  EngineContext ctx;
  auto e = ExplainContainment(ctx, workloads::Example51Q2(),
                              workloads::Example51Q1());
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_TRUE(e.value().contained);
  EXPECT_GT(uint64_t{ctx.stats().containment_calls}, 0u);

  // A second explanation reads the verdict off the caller's memo, so the
  // mappings it enumerates are its own and land on the same counters.
  StatsSnapshot before = ctx.stats().Snapshot();
  ASSERT_TRUE(ExplainContainment(ctx, workloads::Example51Q2(),
                                 workloads::Example51Q1())
                  .ok());
  StatsSnapshot delta = ctx.stats().Snapshot() - before;
  EXPECT_EQ(delta.containment_calls, 1u);
  EXPECT_EQ(delta.containment_cache_hits, 1u);
  EXPECT_GT(delta.hom_enumerations, 0u);
}

TEST(ExplainTest, HonoursTheCallersBudget) {
  // The verdict is memoized under the default budget; then a zero mapping
  // cap must stop the explanation's own mapping enumeration with a clean
  // budget error instead of running unbounded.
  EngineContext ctx;
  auto verdict = IsContained(ctx, workloads::Example51Q2(),
                             workloads::Example51Q1());
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  ASSERT_TRUE(verdict.value());
  const uint64_t hits = ctx.stats().containment_cache_hits;
  ctx.budget().max_homomorphisms = 0;
  auto e = ExplainContainment(ctx, workloads::Example51Q2(),
                              workloads::Example51Q1());
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kResourceExhausted);
  // The verdict came from the memo, so the cut came from the enumeration.
  EXPECT_EQ(uint64_t{ctx.stats().containment_cache_hits}, hits + 1);
}

}  // namespace
}  // namespace cqac
