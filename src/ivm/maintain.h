// Incremental view maintenance: keep materialized query results consistent
// with a stream of base-relation inserts and retracts without rebuilding
// from scratch.
//
// Two maintainers, one per program class (docs/ivm.md):
//
//   * MaterializedViewSet — non-recursive CQAC view sets, counting-based.
//     Each view tuple carries its derivation count (number of satisfying
//     body assignments), so a retraction decrements counts and deletes a
//     tuple exactly when its last derivation disappears — no re-derivation
//     needed. Count deltas come from the subset expansion of the join: for
//     insert delta D+ over old base B, (B+D+)^n - B^n = the sum over every
//     nonempty subset S of delta-touched body positions of the join where
//     S-positions read D+ and the rest read B. Retractions mirror this
//     against the post-delete base with sign -1. Because the non-delta
//     positions always read the plain owned base (never a base-union-delta
//     overlay), they probe the base Database's own column indexes, which
//     every commit patches in O(delta) — a single-fact apply does O(delta)
//     work, not O(base).
//
//   * MaintainedProgram — recursive Datalog programs (the Section 5 MCRs),
//     DRed-style: inserts seed a semi-naive resume of the existing engine;
//     deletes over-delete everything transitively touching a retracted
//     tuple, then re-derive the survivors from the remaining facts.
//
// Both maintainers estimate the incremental work per batch and fall back to
// a full rebuild when a large delta would cost more than recomputing
// (MaintainOptions::rebuild_bias). Both thread an EngineContext through:
// budget/deadline/cancel abort the apply with kResourceExhausted, ivm_*
// stat counters record the maintenance work, and the counting maintainer
// fans delta chunks out over the context's TaskPool — derivation counts are
// additive, so chunk merges commute and the maintained state is
// byte-identical at every thread count.
#ifndef CQAC_IVM_MAINTAIN_H_
#define CQAC_IVM_MAINTAIN_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/datalog/engine.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/ir/query.h"
#include "src/ir/view.h"
#include "src/ivm/delta.h"

namespace cqac {
namespace ivm {

/// Per-batch policy knobs. The incremental-vs-rebuild choice itself is made
/// by the planner (plan::ChooseIvmPath), which combines these pins with the
/// work estimates and the context's self-tuning calibration factors.
struct MaintainOptions {
  /// Fall back to a full rebuild when the (calibrated) incremental work
  /// estimate exceeds rebuild_bias × the (calibrated) rebuild estimate.
  double rebuild_bias = 1.0;

  /// Cap on the number of delta-touched body positions the counting
  /// maintainer will expand incrementally: a delta side touching k
  /// positions of one view body expands into 2^k - 1 subset joins, so past
  /// the cap Apply falls back to a rebuild regardless of the cost
  /// estimates. The default preserves the historical cutoff; 0 disables
  /// incremental maintenance for any delta that touches a body at all.
  size_t max_subset_positions = 10;

  /// Force one path regardless of the estimates (benchmarks, tests).
  bool force_incremental = false;
  bool force_rebuild = false;
};

/// What one Apply did.
struct ApplySummary {
  size_t inserted = 0;            ///< base tuples added
  size_t retracted = 0;           ///< base tuples removed
  size_t view_tuples_added = 0;   ///< derived tuples that appeared
  size_t view_tuples_removed = 0; ///< derived tuples that disappeared
  bool incremental = false;       ///< false when this batch was rebuilt
};

/// One touched tuple's count transition across a certified Apply. For the
/// counting maintainer the counts are derivation counts; for DRed they are
/// 0/1 presence.
struct TupleCountDelta {
  Tuple tuple;
  int64_t old_count = 0;
  int64_t new_count = 0;
};

/// The touched-tuple set of one view (or IDB predicate) across one Apply.
struct ViewDelta {
  std::string predicate;
  std::vector<TupleCountDelta> deltas;  ///< ascending tuple order
};

/// A machine-checkable record of one committed Apply: every touched tuple
/// of every maintained relation with its before/after count, plus the
/// summary the caller saw. The auditor (src/analysis/audit) replays it
/// against a from-scratch re-evaluation of the post-commit database —
/// independent of the O(delta) maintenance that produced it. Emission is
/// opt-in (the `cert` out-parameter) because snapshotting the counts is
/// O(state), not O(delta).
struct MaintenanceCertificate {
  std::vector<ViewDelta> views;  ///< one entry per maintained predicate
  ApplySummary summary;
  bool counting = false;  ///< true: derivation counts; false: 0/1 presence
};

/// A set of non-recursive CQAC views materialized over an owned base
/// database, maintained under insert/retract batches via per-tuple
/// derivation counts.
///
/// Thread-compatible: one coordinator mutates it at a time (Apply itself
/// fans out internally over the context's pool).
class MaterializedViewSet {
 public:
  /// tuple -> derivation count for one view. Public because durability
  /// snapshots (src/store) serialize the counts: recovery must restore them
  /// exactly or later retractions would delete view tuples too early/late.
  using CountMap = std::map<Tuple, int64_t>;

  MaterializedViewSet() = default;

  /// Registers `view` and materializes it (with counts) over the current
  /// base. Fails if a view with the same head predicate is registered.
  Status AddView(EngineContext& ctx, const Query& view);

  /// Replaces the registered views wholesale and re-materializes.
  Status ResetViews(EngineContext& ctx, const ViewSet& views);

  /// Applies one staged batch. The delta must have been staged against
  /// base(). On kResourceExhausted a rebuild, and any batch with one side
  /// only (ApplyInsert, ApplyRetract), is rolled back completely; a mixed
  /// batch may keep its retract half when the insert half aborts (the
  /// aborted half is rolled back). Base and views always agree.
  /// When `cert` is non-null, a successful Apply fills it with the exact
  /// per-tuple count transitions of this batch (O(state) snapshotting).
  Result<ApplySummary> Apply(EngineContext& ctx, const DeltaDatabase& delta,
                             const MaintainOptions& options = {},
                             MaintenanceCertificate* cert = nullptr);

  /// Convenience: stages every fact of `facts` and applies.
  Result<ApplySummary> ApplyInsert(EngineContext& ctx, const Database& facts,
                                   const MaintainOptions& options = {},
                                   MaintenanceCertificate* cert = nullptr);
  Result<ApplySummary> ApplyRetract(EngineContext& ctx, const Database& facts,
                                    const MaintainOptions& options = {},
                                    MaintenanceCertificate* cert = nullptr);

  /// The owned base database (read-only; mutate via Apply).
  const Database& base() const { return base_; }

  /// The materialized view database {v_i -> v_i(base)}. Always exactly
  /// equal to MaterializeViews(view set, base()).
  const Database& views() const { return views_; }

  const std::vector<Query>& view_queries() const { return view_queries_; }

  /// Per-view derivation counts, parallel to view_queries().
  const std::vector<CountMap>& counts() const { return counts_; }

  /// Adopts externally recovered state wholesale — the durability snapshot
  /// loader's O(state-size) path that does NO rematerialization (no joins):
  /// `view_db` must already equal the materialization implied by `counts`,
  /// which must be parallel to `views`. `base` brings its own indexes, if
  /// any; the rest are built on first probe.
  Status RestoreSnapshot(Database base, std::vector<Query> views,
                         std::vector<CountMap> counts, Database view_db,
                         bool maintained);

  /// True while the state is incrementally maintained: the most recent
  /// Apply (if any) took the incremental path. A fallback rebuild resets
  /// it to false until the next incremental batch.
  bool maintained() const { return maintained_; }

  /// Drops all state: base, views, counts.
  void Reset();

 private:
  /// Recomputes counts_[i] and views_ entries for view i from base_.
  Status RebuildView(EngineContext& ctx, size_t i);

  /// Folds one view's count delta into counts_/views_.
  Status FoldCounts(size_t i, const CountMap& delta, ApplySummary* summary);

  Database base_;
  Database views_;
  std::vector<Query> view_queries_;
  std::vector<CountMap> counts_;
  bool maintained_ = false;
};

/// A recursive Datalog program (datalog::Engine rules) maintained to
/// fixpoint over an owned EDB, DRed-style.
///
/// On a non-OK Apply the internal state is unspecified; call Initialize
/// again before further use.
class MaintainedProgram {
 public:
  explicit MaintainedProgram(datalog::Engine engine,
                             datalog::EvalOptions options = {});

  /// (Re)runs the program to fixpoint over `edb` and adopts it as the
  /// maintained state.
  Status Initialize(EngineContext& ctx, const Database& edb);

  /// Applies one staged batch of EDB changes (the delta must have been
  /// staged against edb()). Staging changes to IDB predicates is an error.
  /// When `cert` is non-null, a successful Apply fills it with the 0/1
  /// presence transitions of every touched IDB tuple.
  Result<ApplySummary> Apply(EngineContext& ctx, const DeltaDatabase& delta,
                             const MaintainOptions& options = {},
                             MaintenanceCertificate* cert = nullptr);

  const Database& edb() const { return edb_; }
  const Database& idb() const { return idb_; }

  /// The maintained program's engine (for auditors that re-evaluate from
  /// scratch).
  const datalog::Engine& engine() const { return engine_; }

  /// The query predicate's relation with Skolem-carrying tuples removed
  /// (same convention as datalog::Engine::Query).
  Relation QueryAnswers() const;

  /// True while the most recent Apply (if any) was incremental.
  bool maintained() const { return maintained_; }

 private:
  /// One semi-naive continuation: runs rounds pivoting on `delta` IDB
  /// relations until empty, folding new tuples into idb_.
  Status Resume(EngineContext& ctx, std::map<std::string, Relation> delta);

  /// DRed delete phase for `minus` (a subset of edb_).
  Status ApplyDeletes(EngineContext& ctx, const Database& minus,
                      ApplySummary* summary);

  /// Seed-and-resume insert phase for `plus` (disjoint from edb_).
  Status ApplyInserts(EngineContext& ctx, const Database& plus,
                      ApplySummary* summary);

  datalog::Engine engine_;
  datalog::EvalOptions options_;
  std::set<std::string> idb_preds_;
  Database edb_;
  Database idb_;
  bool maintained_ = false;
};

}  // namespace ivm
}  // namespace cqac

#endif  // CQAC_IVM_MAINTAIN_H_
