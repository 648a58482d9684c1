// DeltaDatabase: a staged batch of base-relation changes against a fixed
// snapshot of a Database.
//
// The incremental maintainer (src/ivm/maintain.h) consumes a *normalized*
// delta: the positive side is disjoint from the base, the negative side is a
// subset of it, and the two sides are disjoint from each other. Staging
// enforces that normal form eagerly — inserting an already-present tuple is
// a no-op, retracting an absent one is a no-op, and an insert/retract pair
// on the same tuple cancels — so the maintainer can equate "delta tuple" with
// "actual state change" and per-tuple derivation counts stay exact.
//
// Tuples live in ordinary Relations (std::set), so the canonical tuple
// order of the base database is preserved on both delta sides; everything
// downstream that iterates a delta does so in one deterministic order.
#ifndef CQAC_IVM_DELTA_H_
#define CQAC_IVM_DELTA_H_

#include <string>

#include "src/base/status.h"
#include "src/eval/database.h"

namespace cqac {
namespace ivm {

/// A normalized insert/retract batch staged against `*base`. The base must
/// outlive the delta and must not change while the delta is staged.
class DeltaDatabase {
 public:
  explicit DeltaDatabase(const Database* base) : base_(base) {}

  /// Stages the insertion of `tuple` into `predicate`. No-op when the tuple
  /// is already in the base; cancels a staged retraction of the same tuple.
  Status StageInsert(const std::string& predicate, Tuple tuple);

  /// Stages the removal of `tuple` from `predicate`. No-op when the tuple
  /// is absent from the base; cancels a staged insertion of the same tuple.
  Status StageRetract(const std::string& predicate, Tuple tuple);

  /// Stages every fact of `facts` for insertion (retraction).
  Status StageInsertAll(const Database& facts);
  Status StageRetractAll(const Database& facts);

  /// Tuples to add: disjoint from the base.
  const Database& plus() const { return plus_; }

  /// Tuples to remove: a subset of the base.
  const Database& minus() const { return minus_; }

  const Database& base() const { return *base_; }

  bool empty() const { return plus_.TotalTuples() + minus_.TotalTuples() == 0; }

  /// Total staged changes, |plus| + |minus|.
  size_t delta_tuples() const {
    return plus_.TotalTuples() + minus_.TotalTuples();
  }

  /// Folds the staged changes into `*out`, which must hold the same state
  /// as the base snapshot this delta was staged against.
  Status CommitTo(Database* out) const;

 private:
  /// Rejects tuples whose arity disagrees with the base relation.
  Status CheckArity(const std::string& predicate, const Tuple& tuple) const;

  const Database* base_;
  Database plus_;
  Database minus_;
};

}  // namespace ivm
}  // namespace cqac

#endif  // CQAC_IVM_DELTA_H_
