// The database substrate: named relations of constant tuples.
//
// Used to (a) materialize views, (b) evaluate queries / rewritings / Datalog
// programs, and (c) empirically validate containment results produced by the
// symbolic algorithms (every contained rewriting must satisfy
// eval(P, V(D)) subset-of eval(Q, D) on every database D).
#ifndef CQAC_EVAL_DATABASE_H_
#define CQAC_EVAL_DATABASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ir/term.h"
#include "src/plan/planner.h"
#include "src/plan/stats.h"

namespace cqac {

/// A database tuple of constants.
using Tuple = std::vector<Value>;

/// A relation instance: a set of same-arity tuples (set semantics, as in the
/// paper).
using Relation = std::set<Tuple>;

class ColumnIndex;  // src/eval/column_index.h

/// A database instance: predicate name -> relation.
///
/// A Database also owns the equality indexes joins probe over it
/// (docs/eval.md#indexes): one ColumnIndex per probed (relation, column),
/// built on the first probe and patched by every mutating member, so an
/// index is exact whenever it is read. A copy starts with no indexes (its
/// tuples live in new set nodes); a move keeps them (set nodes survive the
/// move). Reads, index builds included, may run concurrently; mutation
/// must not overlap any read.
class Database {
 public:
  Database() = default;

  /// Inserts `tuple` into relation `predicate`; enforces consistent arity.
  Status Insert(const std::string& predicate, Tuple tuple);

  /// Bulk Insert: merges the whole of `rel` into relation `predicate` with
  /// the same arity enforcement, moving the set in wholesale when the
  /// relation does not exist yet (the MaterializeViews fast path — no
  /// per-tuple copy or re-balancing). An empty `rel` is a no-op.
  Status InsertRelation(const std::string& predicate, Relation rel);

  /// Removes `tuple` from relation `predicate`. Returns true when the tuple
  /// was present. An emptied relation keeps its (empty) entry so arity
  /// bookkeeping and iteration order stay stable.
  bool Remove(const std::string& predicate, const Tuple& tuple);

  /// Drops relation `predicate`, entry and indexes included. The planner
  /// sketches keep its observations (they are insert-monotone).
  void EraseRelation(const std::string& predicate);

  /// True iff `tuple` is present in relation `predicate`.
  bool Contains(const std::string& predicate, const Tuple& tuple) const {
    return Get(predicate).count(tuple) > 0;
  }

  /// Returns the relation for `predicate` (empty relation if absent).
  const Relation& Get(const std::string& predicate) const;

  bool Has(const std::string& predicate) const {
    return relations_.count(predicate) > 0;
  }

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  size_t TotalTuples() const;

  /// Per-column distinct-count sketches, maintained O(1) amortized on the
  /// insert paths for the cost-based planner. Insert-monotone: retractions
  /// leave them as upper bounds on the live distinct counts (src/plan).
  const plan::RelationStats& stats() const { return stats_; }

  /// Replaces the planner sketches wholesale. Durability recovery
  /// (src/store) restores tuples via Insert — which rebuilds sketches from
  /// the live tuples only — then overwrites them with the recorded state,
  /// which still carries retracted tuples' observations.
  void RestoreStats(plan::RelationStats stats) { stats_ = std::move(stats); }

  /// Merges all tuples of `other` into this database.
  Status Merge(const Database& other);

  /// The equality index over column `col` of relation `predicate` (absent
  /// relations included: the index fills as tuples arrive). Built on the
  /// first request, under a lock so concurrent first probes build it once;
  /// *built, when non-null, is set to whether this call built it. The
  /// reference stays valid until the relation is erased or this database
  /// is destroyed or assigned.
  const ColumnIndex& Index(const std::string& predicate, size_t col,
                           bool* built = nullptr) const;

  /// Parses newline/period-separated facts like `r(1, 2). s(2, red).`
  static Result<Database> FromFacts(const std::string& text);

  std::string ToString() const;

 private:
  /// Per predicate, the index of each probed column (null: not probed).
  /// Copying yields an empty table, moving keeps it; see the class comment.
  struct IndexTable {
    IndexTable();
    ~IndexTable();
    IndexTable(const IndexTable&);
    IndexTable& operator=(const IndexTable&);
    IndexTable(IndexTable&& o) noexcept;
    IndexTable& operator=(IndexTable&& o) noexcept;

    /// Patches every index of `predicate` for one stored tuple.
    void OnInsert(const std::string& predicate, const Tuple* t);
    void OnRemove(const std::string& predicate, const Tuple* t);

    std::mutex mu;  // serializes lookups and builds; reads of a built index
                    // take no lock
    std::map<std::string, std::vector<std::unique_ptr<ColumnIndex>>> by_pred;
  };

  std::map<std::string, Relation> relations_;
  plan::RelationStats stats_;
  mutable IndexTable indexes_;
  static const Relation kEmpty;
};

/// The planner's view of `db`: exact row counts and the sketches' distinct
/// estimates. The plan::Cardinalities it converts to refers to this object,
/// so pass it straight in: plan::PlanJoinOrder(q, DatabaseCardinalities(db)).
class DatabaseCardinalities {
 public:
  explicit DatabaseCardinalities(const Database& db) : db_(db) {}
  size_t operator()(const std::string& p) const { return db_.Get(p).size(); }
  size_t operator()(const std::string& p, size_t column) const {
    return db_.stats().DistinctEstimate(p, column);
  }
  operator plan::Cardinalities() const { return {*this, *this}; }

 private:
  const Database& db_;
};

/// Renders a tuple as "(a, b, c)".
std::string TupleToString(const Tuple& t);

}  // namespace cqac

#endif  // CQAC_EVAL_DATABASE_H_
