// Deadline promptness: the homomorphism inner loop and the join inner loop
// poll the deadline every few hundred / few thousand steps, so a context
// whose deadline has passed must abort with kResourceExhausted quickly even
// when a *single* candidate's search space is astronomically large (the old
// per-candidate checks could run one candidate to completion first).
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/engine/context.h"
#include "src/eval/evaluate.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

// A complete digraph on `n` nodes as a single binary relation.
Database CompleteGraph(int n) {
  Database db;
  for (int a = 0; a < n; ++a)
    for (int b = 0; b < n; ++b) {
      Status st = db.Insert("r", {Value(Rational(a)), Value(Rational(b))});
      if (!st.ok()) std::abort();
    }
  return db;
}

TEST(BudgetDeadlineTest, HomomorphismLoopAbortsMidCandidate) {
  // Mapping a 14-atom chain into a dense 4-node graph admits ~3^14 walks,
  // and the trailing comparison X0 < X14 is implied by none of them (q1 has
  // no comparisons), so the search must reject every single walk: one
  // candidate whose backtracking runs for millions of steps. An
  // already-expired deadline must surface mid-candidate via the inner-loop
  // checkpoint, not after the enumeration finishes.
  Query q1 = MustParseQuery(
      "q(A) :- r(A,B), r(B,C), r(C,D), r(D,A), r(A,C), r(B,D), "
      "r(C,A), r(D,B), r(B,A), r(D,C)");
  std::string chain = "q(X0) :- ";
  for (int i = 0; i < 14; ++i)
    chain += StrCat(i ? ", " : "", "r(X", i, ", X", i + 1, ")");
  chain += ", X0 < X14";
  Query q2 = MustParseQuery(chain);

  EngineContext ctx(Budget::WithTimeout(milliseconds(0)));
  auto start = steady_clock::now();
  Result<bool> r = IsContained(ctx, q1, q2);
  auto elapsed = steady_clock::now() - start;

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status();
  EXPECT_LT(elapsed, milliseconds(2000))
      << "deadline abort took too long: the inner-loop checkpoint is gone";
  EXPECT_GT(uint64_t{ctx.stats().budget_exhaustions}, 0u);
}

TEST(BudgetDeadlineTest, JoinLoopAbortsMidEvaluation) {
  // A triple self-join over a 40^2-tuple relation enumerates ~4e9 raw
  // combinations; the per-4096-steps checkpoint must cut it off promptly.
  Query q = MustParseQuery("q(A, F) :- r(A,B), r(C,D), r(E,F)");
  Database db = CompleteGraph(40);

  EngineContext ctx(Budget::WithTimeout(milliseconds(50)));
  auto start = steady_clock::now();
  Result<Relation> r = EvaluateQuery(ctx, q, db);
  auto elapsed = steady_clock::now() - start;

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status();
  EXPECT_LT(elapsed, milliseconds(2000));
  EXPECT_GT(uint64_t{ctx.stats().budget_exhaustions}, 0u);
}

TEST(BudgetDeadlineTest, FilteredScanStillPollsTheCheckpoint) {
  // The leading atom's constant comparison rejects every stored tuple
  // before it joins a batch. Rejected tuples must still count toward the
  // 4096-tuple checkpoint, so a cancelled context ends the scan with
  // kResourceExhausted rather than an empty success.
  Database db;
  for (int i = 0; i < 10000; ++i)
    ASSERT_TRUE(db.Insert("r", {Value(i), Value(i % 7)}).ok());
  Query q = MustParseQuery("q(X, Y) :- r(X, Y), X < 0");

  EngineContext ctx;
  ctx.RequestCancel();
  Result<Relation> r = EvaluateQuery(ctx, q, db);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status();
}

TEST(BudgetDeadlineTest, GenerousDeadlineStillSucceeds) {
  // Sanity: the finer checkpoints must not reject work that fits the
  // budget.
  Query q1 = MustParseQuery("q(A) :- r(A,B), r(B,C)");
  Query q2 = MustParseQuery("q(A) :- r(A,B)");
  EngineContext ctx(Budget::WithTimeout(milliseconds(60000)));
  Result<bool> fwd = IsContained(ctx, q1, q2);
  ASSERT_TRUE(fwd.ok()) << fwd.status();
  EXPECT_TRUE(fwd.value());

  Query q = MustParseQuery("q(A, C) :- r(A,B), r(B,C)");
  Database db = CompleteGraph(8);
  Result<Relation> rel = EvaluateQuery(ctx, q, db);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(rel.value().size(), 64u);
}

}  // namespace
}  // namespace cqac
