// Evaluation of CQAC queries and unions over a Database.
//
// The join engine is columnar and batch-at-a-time (docs/eval.md): partial
// join results travel as Batches (per-variable value columns with a tagged
// int64 fast path for integral Rationals), comparison predicates run as
// vectorized selection-vector filters, and each body atom extends the batch
// through a ColumnIndex probe — the Database's own index when the atom
// reads a relation a Database owns, a per-call one over a bare relation.
// The pre-columnar tuple-at-a-time evaluator survives as
// EvaluateQueryReference for differential testing.
#ifndef CQAC_EVAL_EVALUATE_H_
#define CQAC_EVAL_EVALUATE_H_

#include "src/base/function_ref.h"
#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/eval/batch.h"
#include "src/eval/database.h"
#include "src/ir/query.h"
#include "src/ir/view.h"

namespace cqac {

/// Evaluates a ground comparison over constants: numbers compare by value;
/// symbols support only (dis)equality; number-vs-symbol ordered comparisons
/// are false.
bool EvaluateGroundComparison(const Value& lhs, CompOp op, const Value& rhs);

/// Per-call evaluation knobs — the planner seam.
struct EvalOptions {
  /// kPlanned (default): the body executes in the atom order chosen by
  /// plan::PlanJoinOrder over the database's cardinality stats. Joins over
  /// set-semantics relations are order-independent, so every order returns
  /// the identical relation; kSyntactic pins the written order (tests,
  /// ablations — tests/plan_equivalence_test.cc sweeps both against every
  /// body permutation).
  enum class JoinOrder { kPlanned, kSyntactic };
  JoinOrder join_order = JoinOrder::kPlanned;
};

/// Returns the set of head tuples of `q` on `db`. Honours the budget
/// deadline / cancellation flag (kResourceExhausted on abort), records
/// eval_batches / eval_smallint_fallbacks / plan_* stats, plans the body
/// atom order (see EvalOptions), and fans the join out over the context's
/// task pool by dealing the first planned atom's tuples round-robin into
/// chunks. The order is chosen from the database alone, before any fan-out,
/// so the result set is identical at every thread count. With no pool
/// attached and JoinOrder::kSyntactic it is a serial join in written order.
Result<Relation> EvaluateQuery(EngineContext& ctx, const Query& q,
                               const Database& db);
Result<Relation> EvaluateQuery(EngineContext& ctx, const Query& q,
                               const Database& db,
                               const EvalOptions& options);

/// The pre-columnar tuple-at-a-time backtracking evaluator, kept verbatim as
/// the differential-testing oracle: EvaluateQuery must return a byte-
/// identical relation (tests/eval_columnar_test.cc sweeps this at thread
/// counts 0/1/4/8).
Result<Relation> EvaluateQueryReference(const Query& q, const Database& db);

/// Evaluates each disjunct (in parallel over the context's pool) and unions
/// the results (all head arities must agree).
Result<Relation> EvaluateUnion(EngineContext& ctx, const UnionQuery& u,
                               const Database& db);

/// Materializes every view in `views` over `db` (in parallel over the
/// context's pool), producing the view database {v_i -> v_i(db)} the
/// rewriting is evaluated against.
Result<Database> MaterializeViews(EngineContext& ctx, const ViewSet& views,
                                  const Database& db);

/// True iff `head` is among q's result tuples on `db` — the canonical-
/// database containment probe. Evaluates the join batch-at-a-time with an
/// early exit as soon as one satisfying assignment projects onto `head`,
/// instead of materializing the full result. `stats`, when non-null,
/// receives eval_batches / eval_smallint_fallbacks / eval_index_builds
/// increments.
Result<bool> QueryYieldsTuple(const Query& q, const Database& db,
                              const Tuple& head,
                              EngineStats* stats = nullptr);

/// What one body atom of a join reads. An atom over a relation a Database
/// owns probes that Database's ColumnIndex for (atom predicate, column),
/// built on first probe and kept across calls; an atom over a bare
/// relation (a delta, a fan-out chunk, a datalog round) gets a per-call
/// ColumnIndex.
struct JoinInput {
  /// Atom `predicate` of a join over `db`.
  static JoinInput Owned(const Database& db, const std::string& predicate) {
    return JoinInput{&db.Get(predicate), &db};
  }
  static JoinInput Bare(const Relation& rel) { return JoinInput{&rel, nullptr}; }

  const Relation* rel;
  const Database* owner;  // non-null: rel is owner's relation for the atom
};

/// Every atom of q's body read from `db`.
std::vector<JoinInput> OwnedInputs(const Query& q, const Database& db);

/// The batch-native join: evaluates `q`'s body where body atom i reads
/// inputs[i], filtering comparisons eagerly (as soon as both sides are
/// bound). A fully scanned atom checks the comparisons it binds on its own
/// on the stored tuple, before the tuple joins a batch; the rest run as
/// vectorized filters. `sink` is invoked once per non-empty output batch
/// with the batch and the variable -> column map (length q.num_vars(); -1
/// for variables no atom binds); returning false stops the enumeration
/// early (a normal stop, not an abort). `checkpoint` is polled every few
/// thousand tuples examined; returning false aborts the join, in which case
/// JoinBodyBatches returns false and the sink may have seen only a prefix
/// of the satisfying assignments. `stats`, when non-null, receives
/// eval_batches / eval_smallint_fallbacks / eval_index_builds increments.
/// Batch boundaries and row order within a batch are unspecified; only the
/// multiset of rows is contractual (it equals the satisfying assignments
/// exactly).
bool JoinBodyBatches(const Query& q, const std::vector<JoinInput>& inputs,
                     FunctionRef<bool(const Batch&, const std::vector<int>&)> sink,
                     FunctionRef<bool()> checkpoint,
                     EngineStats* stats = nullptr);

/// Projects batches of satisfying assignments onto a query head. The head
/// layout (constant vs column per argument) is resolved once per batch, and
/// every projected row is written into one reused tuple buffer — callers
/// copy out of it (set/map inserts do) instead of paying a fresh allocation
/// per emitted tuple. Rows are skipped when some head variable is unbound
/// (unsafe head: the assignment yields no tuple).
class BatchHeadProjector {
 public:
  explicit BatchHeadProjector(const Query& q) : q_(q) {}

  /// Calls fn(head) once per projectable row of `b`.
  void ForEachHead(const Batch& b, const std::vector<int>& var_col,
                   FunctionRef<void(const Tuple&)> fn);

 private:
  const Query& q_;
  Tuple buf_;
};

}  // namespace cqac

#endif  // CQAC_EVAL_EVALUATE_H_
