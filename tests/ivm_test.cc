// Unit tests for src/ivm: delta staging normal form, the counting
// maintainer (subset expansion + persistent indexes), the DRed maintainer,
// the rebuild fallback, and the ivm_* stat counters.
#include <gtest/gtest.h>

#include <string>

#include "src/engine/context.h"
#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/ivm/delta.h"
#include "src/ivm/maintain.h"

namespace cqac {
namespace {

Database Db(const std::string& facts) {
  auto r = Database::FromFacts(facts);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOr(Database());
}

// ---- DeltaDatabase ---------------------------------------------------------

TEST(DeltaDatabaseTest, StagingNormalizesAgainstTheBase) {
  Database base = Db("r(1, 2). r(3, 4).");
  ivm::DeltaDatabase delta(&base);
  // Inserting a present tuple is a no-op; retracting an absent one too.
  ASSERT_TRUE(delta.StageInsert("r", {Value(1), Value(2)}).ok());
  ASSERT_TRUE(delta.StageRetract("r", {Value(9), Value(9)}).ok());
  EXPECT_TRUE(delta.empty());

  ASSERT_TRUE(delta.StageInsert("r", {Value(5), Value(6)}).ok());
  ASSERT_TRUE(delta.StageRetract("r", {Value(3), Value(4)}).ok());
  EXPECT_EQ(delta.delta_tuples(), 2u);

  // An insert/retract pair on the same tuple cancels, both ways.
  ASSERT_TRUE(delta.StageRetract("r", {Value(5), Value(6)}).ok());
  ASSERT_TRUE(delta.StageInsert("r", {Value(3), Value(4)}).ok());
  EXPECT_TRUE(delta.empty());
}

TEST(DeltaDatabaseTest, RejectsArityMismatch) {
  Database base = Db("r(1, 2).");
  ivm::DeltaDatabase delta(&base);
  EXPECT_FALSE(delta.StageInsert("r", {Value(7)}).ok());
}

TEST(DeltaDatabaseTest, CommitToReproducesTheNewState) {
  Database base = Db("r(1, 2). r(3, 4).");
  ivm::DeltaDatabase delta(&base);
  ASSERT_TRUE(delta.StageInsert("r", {Value(5), Value(6)}).ok());
  ASSERT_TRUE(delta.StageRetract("r", {Value(1), Value(2)}).ok());
  Database out = base;
  ASSERT_TRUE(delta.CommitTo(&out).ok());
  EXPECT_EQ(out.ToString(), Db("r(3, 4). r(5, 6).").ToString());
}

// ---- MaterializedViewSet ---------------------------------------------------

// The join view has two derivations of v(1, 9): via r(1,2),s(2,9) and
// r(1,3),s(3,9). Counting maintenance must keep the tuple alive until the
// second derivation dies.
TEST(MaterializedViewSetTest, RetractsDropTuplesOnlyAtCountZero) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  ASSERT_TRUE(
      store.AddView(ctx, MustParseQuery("v(X, Y) :- r(X, Z), s(Z, Y).")).ok());
  ASSERT_TRUE(
      store.ApplyInsert(ctx, Db("r(1, 2). r(1, 3). s(2, 9). s(3, 9).")).ok());
  EXPECT_TRUE(store.views().Contains("v", {Value(1), Value(9)}));

  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;
  auto s1 = store.ApplyRetract(ctx, Db("r(1, 2)."), incremental);
  ASSERT_TRUE(s1.ok()) << s1.status();
  EXPECT_EQ(s1.value().view_tuples_removed, 0u);  // one derivation left
  EXPECT_TRUE(store.views().Contains("v", {Value(1), Value(9)}));

  auto s2 = store.ApplyRetract(ctx, Db("r(1, 3)."), incremental);
  ASSERT_TRUE(s2.ok()) << s2.status();
  EXPECT_EQ(s2.value().view_tuples_removed, 1u);
  EXPECT_FALSE(store.views().Contains("v", {Value(1), Value(9)}));
}

// A batch that touches several body positions of a self-join at once
// exercises the full subset expansion (both single-position subsets and the
// delta-joins-delta subset).
TEST(MaterializedViewSetTest, SelfJoinBatchMatchesFromScratch) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  Query view = MustParseQuery("v(X, Z) :- r(X, Y), r(Y, Z).");
  ASSERT_TRUE(store.AddView(ctx, view).ok());
  ASSERT_TRUE(store.ApplyInsert(ctx, Db("r(1, 2). r(2, 3).")).ok());

  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;
  // r(3,1) closes a cycle: new derivations pair the inserted tuple with old
  // tuples on either side AND with itself (the {0,1} subset).
  ASSERT_TRUE(
      store.ApplyInsert(ctx, Db("r(3, 1). r(3, 3)."), incremental).ok());

  ViewSet views;
  ASSERT_TRUE(views.Add(view).ok());
  auto expect = MaterializeViews(ctx, views, store.base());
  ASSERT_TRUE(expect.ok()) << expect.status();
  EXPECT_EQ(store.views().ToString(), expect.value().ToString());

  ASSERT_TRUE(
      store.ApplyRetract(ctx, Db("r(2, 3). r(3, 3)."), incremental).ok());
  auto expect2 = MaterializeViews(ctx, views, store.base());
  ASSERT_TRUE(expect2.ok()) << expect2.status();
  EXPECT_EQ(store.views().ToString(), expect2.value().ToString());
}

TEST(MaterializedViewSetTest, ComparisonViewsFilterIncrementally) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  ASSERT_TRUE(
      store.AddView(ctx, MustParseQuery("v(X) :- r(X, Y), X < Y.")).ok());
  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;
  ASSERT_TRUE(store.ApplyInsert(ctx, Db("r(1, 5). r(7, 2)."), incremental).ok());
  EXPECT_TRUE(store.views().Contains("v", {Value(1)}));
  EXPECT_FALSE(store.views().Contains("v", {Value(7)}));
}

TEST(MaterializedViewSetTest, AddViewMaterializesOverTheExistingBase) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  ASSERT_TRUE(store.ApplyInsert(ctx, Db("r(1, 2). s(2, 4).")).ok());
  ASSERT_TRUE(
      store.AddView(ctx, MustParseQuery("v(X, Y) :- r(X, Z), s(Z, Y).")).ok());
  EXPECT_TRUE(store.views().Contains("v", {Value(1), Value(4)}));
  // Duplicate head predicates are rejected.
  EXPECT_FALSE(store.AddView(ctx, MustParseQuery("v(X) :- r(X, X).")).ok());
}

TEST(MaterializedViewSetTest, RebuildAndIncrementalAgree) {
  Database stream[] = {Db("r(1, 2). s(2, 3)."), Db("r(4, 2). s(2, 5)."),
                       Db("s(2, 3).")};  // last one retracted below
  for (bool force_rebuild : {false, true}) {
    EngineContext ctx;
    ivm::MaterializedViewSet store;
    ASSERT_TRUE(
        store.AddView(ctx, MustParseQuery("v(X, Y) :- r(X, Z), s(Z, Y).")).ok());
    ivm::MaintainOptions options;
    options.force_rebuild = force_rebuild;
    options.force_incremental = !force_rebuild;
    ASSERT_TRUE(store.ApplyInsert(ctx, stream[0], options).ok());
    ASSERT_TRUE(store.ApplyInsert(ctx, stream[1], options).ok());
    ASSERT_TRUE(store.ApplyRetract(ctx, stream[2], options).ok());
    EXPECT_EQ(store.maintained(), !force_rebuild);
    EXPECT_EQ(store.views().ToString(), Db("v(1, 5). v(4, 5).").ToString());
  }
}

TEST(MaterializedViewSetTest, HeuristicRebuildsOnHugeDeltas) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  ASSERT_TRUE(
      store.AddView(ctx, MustParseQuery("v(X, Y) :- r(X, Z), s(Z, Y).")).ok());
  // Empty base, large first batch: the rebuild estimate is ~0 while the
  // delta estimate is positive, so the heuristic must rebuild.
  Database big;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(big.Insert("r", {Value(i), Value(i + 1)}).ok());
    ASSERT_TRUE(big.Insert("s", {Value(i + 1), Value(i)}).ok());
  }
  ASSERT_TRUE(store.ApplyInsert(ctx, big).ok());
  EXPECT_FALSE(store.maintained());
  EXPECT_GE(uint64_t{ctx.stats().ivm_rebuild_fallbacks}, 1u);

  // A single-fact follow-up goes incremental and agrees with from-scratch.
  ASSERT_TRUE(store.ApplyInsert(ctx, Db("r(100, 1).")).ok());
  EXPECT_TRUE(store.maintained());
  EXPECT_TRUE(store.views().Contains("v", {Value(100), Value(0)}));
}

TEST(MaterializedViewSetTest, StatCountersRecordTheWork) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  ASSERT_TRUE(store.AddView(ctx, MustParseQuery("v(X) :- r(X, Y).")).ok());
  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;
  ASSERT_TRUE(store.ApplyInsert(ctx, Db("r(1, 2). r(3, 4)."), incremental).ok());
  EXPECT_EQ(uint64_t{ctx.stats().ivm_applies}, 1u);
  EXPECT_EQ(uint64_t{ctx.stats().ivm_incremental_applies}, 1u);
  EXPECT_EQ(uint64_t{ctx.stats().ivm_base_delta_tuples}, 2u);
  EXPECT_EQ(uint64_t{ctx.stats().ivm_view_delta_tuples}, 2u);

  // An empty delta is a no-op that touches no counters.
  ivm::DeltaDatabase empty(&store.base());
  ASSERT_TRUE(store.Apply(ctx, empty).ok());
  EXPECT_EQ(uint64_t{ctx.stats().ivm_applies}, 1u);
}

TEST(MaterializedViewSetTest, DeltaAgainstForeignBaseIsRejected) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  Database other = Db("r(1, 1).");
  ivm::DeltaDatabase delta(&other);
  ASSERT_TRUE(delta.StageInsert("r", {Value(2), Value(2)}).ok());
  EXPECT_FALSE(store.Apply(ctx, delta).ok());
}

// An aborted retract phase must roll the committed removals back so base
// and views still agree. The hub tuple joins >4096 partners, which is what
// lets the join's abort checkpoint fire at all.
TEST(MaterializedViewSetTest, AbortedRetractRollsBack) {
  EngineContext ctx;
  ivm::MaterializedViewSet store;
  ASSERT_TRUE(
      store.AddView(ctx, MustParseQuery("v(X, Y) :- r(X, Z), s(Z, Y).")).ok());
  Database base;
  ASSERT_TRUE(base.Insert("r", {Value(1), Value(0)}).ok());
  for (int i = 0; i < 5000; ++i)
    ASSERT_TRUE(base.Insert("s", {Value(0), Value(i)}).ok());
  ASSERT_TRUE(store.ApplyInsert(ctx, base).ok());
  const std::string base_before = store.base().ToString();
  const std::string views_before = store.views().ToString();

  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;
  ctx.RequestCancel();
  auto aborted = store.ApplyRetract(ctx, Db("r(1, 0)."), incremental);
  EXPECT_FALSE(aborted.ok());
  EXPECT_EQ(store.base().ToString(), base_before);
  EXPECT_EQ(store.views().ToString(), views_before);

  // After the cancellation clears, the same batch applies cleanly.
  ctx.ClearCancel();
  auto retried = store.ApplyRetract(ctx, Db("r(1, 0)."), incremental);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(retried.value().view_tuples_removed, 5000u);
  EXPECT_EQ(store.views().Get("v").size(), 0u);
}

// ---- MaintainedProgram -----------------------------------------------------

Program Tc() {
  return Program("tc", MustParseRules(
                           "tc(X, Y) :- e(X, Y).\n"
                           "tc(X, Z) :- e(X, Y), tc(Y, Z)."));
}

TEST(MaintainedProgramTest, InsertMatchesFromScratchEvaluation) {
  EngineContext ctx;
  ivm::MaintainedProgram prog{datalog::Engine(Tc())};
  ASSERT_TRUE(prog.Initialize(ctx, Db("e(1, 2). e(2, 3).")).ok());

  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;
  ivm::DeltaDatabase plus(&prog.edb());
  ASSERT_TRUE(plus.StageInsert("e", {Value(3), Value(4)}).ok());
  auto s = prog.Apply(ctx, plus, incremental);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_TRUE(prog.maintained());

  auto fresh = datalog::Engine(Tc()).Evaluate(prog.edb());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(prog.idb().ToString(), fresh.value().ToString());
  EXPECT_EQ(prog.QueryAnswers().size(), 6u);
}

TEST(MaintainedProgramTest, DredRederivesThroughAlternativePaths) {
  EngineContext ctx;
  ivm::MaintainedProgram prog{datalog::Engine(Tc())};
  // A diamond: 1->2->4 and 1->3->4, then 4->5. Deleting e(2,4) must keep
  // tc(1,4), tc(1,5) alive through the 1->3->4 path.
  ASSERT_TRUE(
      prog.Initialize(ctx, Db("e(1, 2). e(2, 4). e(1, 3). e(3, 4). e(4, 5)."))
          .ok());

  ivm::MaintainOptions incremental;
  incremental.force_incremental = true;
  ivm::DeltaDatabase minus(&prog.edb());
  ASSERT_TRUE(minus.StageRetract("e", {Value(2), Value(4)}).ok());
  auto s = prog.Apply(ctx, minus, incremental);
  ASSERT_TRUE(s.ok()) << s.status();
  EXPECT_TRUE(prog.idb().Contains("tc", {Value(1), Value(4)}));
  EXPECT_TRUE(prog.idb().Contains("tc", {Value(1), Value(5)}));
  EXPECT_FALSE(prog.idb().Contains("tc", {Value(2), Value(4)}));
  EXPECT_GT(uint64_t{ctx.stats().ivm_overdeletions}, 0u);
  EXPECT_GT(uint64_t{ctx.stats().ivm_rederivations}, 0u);

  auto fresh = datalog::Engine(Tc()).Evaluate(prog.edb());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(prog.idb().ToString(), fresh.value().ToString());
}

TEST(MaintainedProgramTest, RejectsStagedIdbChanges) {
  EngineContext ctx;
  ivm::MaintainedProgram prog{datalog::Engine(Tc())};
  ASSERT_TRUE(prog.Initialize(ctx, Db("e(1, 2).")).ok());
  ivm::DeltaDatabase delta(&prog.edb());
  ASSERT_TRUE(delta.StageInsert("tc", {Value(7), Value(8)}).ok());
  EXPECT_FALSE(prog.Apply(ctx, delta).ok());
}

}  // namespace
}  // namespace cqac
