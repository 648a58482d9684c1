// Incremental view maintenance: keep materialized query results consistent
// with a stream of base-relation inserts and retracts without rebuilding
// from scratch.
//
// One maintainer, MaterializedViewSet, for non-recursive CQAC view sets
// (docs/ivm.md). It is counting-based: each view tuple carries its
// derivation count (number of satisfying body assignments), so a retraction
// decrements counts and deletes a tuple exactly when its last derivation
// disappears — no re-derivation needed. Count deltas come from the subset
// expansion of the join: for insert delta D+ over old base B,
// (B+D+)^n - B^n = the sum over every nonempty subset S of delta-touched
// body positions of the join where S-positions read D+ and the rest read B.
// Retractions mirror this against the post-delete base with sign -1.
// Because the non-delta positions always read the plain owned base (never a
// base-union-delta overlay), they probe the base Database's own column
// indexes, which every commit patches in O(delta) — a single-fact apply
// does O(delta) work, not O(base).
//
// The maintainer estimates the incremental work per batch and falls back to
// a full rebuild when a large delta would cost more than recomputing
// (plan::ChooseIvmPath). It threads an EngineContext through:
// budget/deadline/cancel abort the apply with kResourceExhausted, ivm_*
// stat counters record the maintenance work, and delta chunks fan out over
// the context's TaskPool — derivation counts are additive, so chunk merges
// commute and the maintained state is byte-identical at every thread count.
#ifndef CQAC_IVM_MAINTAIN_H_
#define CQAC_IVM_MAINTAIN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/ir/query.h"
#include "src/ivm/delta.h"
#include "src/plan/planner.h"

namespace cqac {
namespace ivm {

/// What one Apply did.
struct ApplySummary {
  size_t inserted = 0;            ///< base tuples added
  size_t retracted = 0;           ///< base tuples removed
  size_t view_tuples_added = 0;   ///< derived tuples that appeared
  size_t view_tuples_removed = 0; ///< derived tuples that disappeared
  bool incremental = false;       ///< false when this batch was rebuilt
};

/// One touched tuple's derivation-count transition across a certified
/// Apply.
struct TupleCountDelta {
  Tuple tuple;
  int64_t old_count = 0;
  int64_t new_count = 0;
};

/// The touched-tuple set of one view across one Apply.
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
  std::vector<ViewDelta> views;  ///< one entry per maintained view
  ApplySummary summary;
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

  /// Applies one staged batch. The delta must have been staged against
  /// base(). `path` pins the incremental or the rebuild path; kPlanned lets
  /// plan::ChooseIvmPath weigh the work estimates, so the path is a pure
  /// function of the base sizes and the delta. On kResourceExhausted a
  /// rebuild, and any batch with one side only (ApplyInsert,
  /// ApplyRetract), is rolled back completely; a mixed batch may keep its
  /// retract half when the insert half aborts (the aborted half is rolled
  /// back). Base and views always agree.
  /// When `cert` is non-null, a successful Apply fills it with the exact
  /// per-tuple count transitions of this batch (O(state) snapshotting).
  Result<ApplySummary> Apply(EngineContext& ctx, const DeltaDatabase& delta,
                             plan::IvmPath path = {},
                             MaintenanceCertificate* cert = nullptr);

  /// Convenience: stages every fact of `facts` and applies.
  Result<ApplySummary> ApplyInsert(EngineContext& ctx, const Database& facts,
                                   plan::IvmPath path = {},
                                   MaintenanceCertificate* cert = nullptr);
  Result<ApplySummary> ApplyRetract(EngineContext& ctx, const Database& facts,
                                    plan::IvmPath path = {},
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

}  // namespace ivm
}  // namespace cqac

#endif  // CQAC_IVM_MAINTAIN_H_
