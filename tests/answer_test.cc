#include "src/rewriting/answer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/eval/evaluate.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

TEST(AnswerTest, LsiQueryDispatchesToFiniteUnion) {
  EngineContext ctx;
  Query q = workloads::Example11Query();
  ViewSet views = workloads::Example11Views();
  auto plan = PlanForQuery(ctx, q, views);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().kind, PlanKind::kFiniteUnion);

  Database db = Database::FromFacts("r(2). s(2, 2).").value();
  Database vdb = MaterializeViews(ctx, views, db).value();
  auto ans = EvaluateUnion(ctx, plan.value().union_plan, vdb);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().size(), 1u);
  EXPECT_TRUE(ans.value().count({Value(Rational(2))}));
}

TEST(AnswerTest, CqacSiDispatchesToDatalog) {
  EngineContext ctx;
  Query q = workloads::Example12Query();
  ViewSet views = workloads::Example12Views();
  auto plan = PlanForQuery(ctx, q, views);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().kind, PlanKind::kDatalog);
  EXPECT_NE(plan.value().ToString().find(":-"), std::string::npos);

  // The recursive MCR evaluates over the view instance.
  Database db = Database::FromFacts("e(9, 2). e(2, 3).").value();
  Database vdb = MaterializeViews(ctx, views, db).value();
  auto ans = plan.value().datalog->MakeEngine().Query(vdb);
  ASSERT_TRUE(ans.ok()) << ans.status();
  EXPECT_FALSE(ans.value().empty());
}

TEST(AnswerTest, GeneralQueryFallsBackToBucket) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X, Y) :- r(X, Y), X < Y");
  ViewSet views(MustParseRules("v(X, Y) :- r(X, Y)."));
  auto plan = PlanForQuery(ctx, q, views);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan.value().kind, PlanKind::kFiniteUnion);
  Database db = Database::FromFacts("r(1, 2). r(3, 2).").value();
  Database vdb = MaterializeViews(ctx, views, db).value();
  auto ans = EvaluateUnion(ctx, plan.value().union_plan, vdb);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().size(), 1u);
}

TEST(AnswerTest, NoViewsEmptyPlan) {
  EngineContext ctx;
  Query q = MustParseQuery("q(X) :- r(X), X < 2");
  auto plan = PlanForQuery(ctx, q, ViewSet());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().kind, PlanKind::kEmpty);
  auto ans = EvaluateUnion(ctx, plan.value().union_plan, Database());
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().empty());
}

TEST(AnswerTest, CertainAnswersAlwaysSound) {
  // Certain answers are always a subset of the true answers: CertainAnswers
  // for a finite-union MCR, the Datalog MCR's fixpoint for a recursive one.
  EngineContext ctx;
  struct Case {
    Query q;
    ViewSet views;
    std::string facts;
  };
  std::vector<Case> cases;
  cases.push_back({workloads::Example11Query(), workloads::Example11Views(),
                   "r(2). r(9). s(2, 2). s(3, 3)."});
  cases.push_back({workloads::Example12Query(), workloads::Example12Views(),
                   "e(9, 5). e(5, 3). e(1, 2)."});
  cases.push_back({workloads::CarDealerQuery(), workloads::CarDealerViews(),
                   "car(1, 10). loc(10, 99). color(1, red). color(2, red)."});
  for (const Case& c : cases) {
    Database db = Database::FromFacts(c.facts).value();
    Database vdb = MaterializeViews(ctx, c.views, db).value();
    Result<Relation> certain = Relation{};
    if (ChooseRewriteAlgorithm(c.q, c.views) == RewriteAlgorithm::kSiDatalog) {
      auto plan = PlanForQuery(ctx, c.q, c.views);
      ASSERT_TRUE(plan.ok()) << plan.status();
      certain = plan.value().datalog->MakeEngine().Query(vdb);
    } else {
      certain = CertainAnswers(ctx, c.q, c.views, vdb);
    }
    ASSERT_TRUE(certain.ok()) << certain.status();
    Relation truth = EvaluateQuery(ctx, c.q, db).value();
    for (const Tuple& t : certain.value())
      EXPECT_TRUE(truth.count(t)) << c.q.ToString();
  }
}

TEST(AnswerTest, CertainAnswersRefusesWhatItCannotEvaluate) {
  EngineContext ctx;
  size_t count = 0;
  // A CQAC-SI query over SI views has a recursive Datalog MCR.
  auto datalog =
      CertainAnswers(ctx, workloads::Example12Query(),
                     workloads::Example12Views(), Database(), &count);
  EXPECT_EQ(datalog.status().code(), StatusCode::kUnsupported);
  // No view covers the query: no contained rewriting.
  ViewSet unrelated(MustParseRules("v(X) :- s(X)."));
  auto none = CertainAnswers(ctx, MustParseQuery("q(X) :- r(X)."), unrelated,
                             Database(), &count);
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  ViewSet views = workloads::Example11Views();
  Database db = Database::FromFacts("r(2). s(2, 2).").value();
  Database vdb = MaterializeViews(ctx, views, db).value();
  auto ans =
      CertainAnswers(ctx, workloads::Example11Query(), views, vdb, &count);
  ASSERT_TRUE(ans.ok()) << ans.status();
  EXPECT_EQ(ans.value(), (Relation{{Value(Rational(2))}}));
  EXPECT_EQ(count, 1u);
}

// Code with comments and string literals blanked out, so a comment may
// name a function the code never calls.
std::string CodeOnly(const std::string& src) {
  std::string out;
  size_t i = 0;
  while (i < src.size()) {
    if (src.compare(i, 2, "//") == 0) {
      i = src.find('\n', i);
    } else if (src.compare(i, 2, "/*") == 0) {
      i = src.find("*/", i);
      if (i != std::string::npos) i += 2;
    } else if (src[i] == '"' || src[i] == '\'') {
      const char quote = src[i++];
      while (i < src.size() && src[i] != quote) i += src[i] == '\\' ? 2 : 1;
      ++i;
    } else {
      out += src[i++];
    }
  }
  return out;
}

// The shell, the server, the auditor and the ER search reach the rewriters
// only through RunRewriteAlgorithm (answer.h), so whatever sits in front of
// it (a rewriting memo, a span) covers every read op.
TEST(ReadOpDispatchTest, FrontEndsReachTheRewritersOnlyThroughAnswer) {
  for (const char* file :
       {"src/serve/service.cc", "tools/cqac_shell.cc",
        "src/analysis/audit/audit.cc", "src/rewriting/er_search.cc"}) {
    std::ifstream in(std::filesystem::path(CQAC_SOURCE_DIR) / file);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string code = CodeOnly(buf.str());
    for (const char* call :
         {"RewriteLsiQuery(", "BucketRewrite(", "RewriteSiQueryDatalog("})
      EXPECT_EQ(code.find(call), std::string::npos) << file << " calls " << call;
  }
}

}  // namespace
}  // namespace cqac
