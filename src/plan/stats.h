// Cardinality statistics for the cost-based planner.
//
// RelationStats holds per-relation, per-column distinct-count sketches,
// maintained on the Database write paths (src/eval/database.cc). Each
// sketch is a KMV ("k minimum values") summary: O(log k) per insert and a
// few hundred bytes per column, so keeping them fresh is O(delta), the same
// budget as an IVM apply (src/ivm). Row counts are not duplicated here; the
// owning Database's relation sets are exact. The planner reads both through
// plan::Cardinalities callbacks, which a Database supplies as
// DatabaseCardinalities (src/eval/database.h).
//
// Sketches are insert-monotone: retractions do not decrement them, so after
// deletes an estimate is an upper bound on the live distinct count. That is
// the right trade for the planner — join-order ranking only needs relative
// selectivity, and a stale upper bound decays the moment the relation is
// rebuilt (docs/planner.md).
#ifndef CQAC_PLAN_STATS_H_
#define CQAC_PLAN_STATS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ir/term.h"

namespace cqac {
namespace plan {

/// KMV distinct-count sketch over 64-bit hashes: keeps the k smallest
/// hashes seen. Below k distinct hashes the estimate is exact; at
/// saturation the k-th smallest hash's position in [0, 2^64) estimates the
/// density, hence the count.
class DistinctSketch {
 public:
  static constexpr size_t kK = 64;

  void Observe(uint64_t hash);
  size_t Estimate() const;

  /// Durability snapshot surface (src/store). Sketches are insert-monotone
  /// — they remember retracted tuples' observations — so recovery cannot
  /// rebuild them from the live tuples; the exact internal state is
  /// serialized and restored instead, keeping post-recovery plans
  /// byte-identical to the pre-crash process.
  const std::set<uint64_t>& hashes() const { return smallest_; }
  bool saturated() const { return saturated_; }
  void Restore(std::set<uint64_t> hashes, bool saturated) {
    smallest_ = std::move(hashes);
    saturated_ = saturated;
  }

 private:
  std::set<uint64_t> smallest_;  // at most kK entries
  bool saturated_ = false;
};

/// Per-relation, per-column sketches. Thread-compatible (mutated on the
/// same coordinator thread that mutates the owning Database).
class RelationStats {
 public:
  /// Folds one inserted tuple into the column sketches. Duplicate inserts
  /// are no-ops on the estimates (the sketch counts distinct hashes), so
  /// callers may observe before knowing whether the insert was novel.
  void OnInsert(const std::string& predicate, const std::vector<Value>& tuple);

  /// Distinct-count estimate for one column; 0 when the predicate has never
  /// been observed or the column is out of range.
  size_t DistinctEstimate(const std::string& predicate, size_t column) const;

  void Clear() { sketches_.clear(); }

  /// Durability snapshot surface (src/store): the full sketch table.
  const std::map<std::string, std::vector<DistinctSketch>>& sketches() const {
    return sketches_;
  }
  void RestoreSketches(std::map<std::string, std::vector<DistinctSketch>> s) {
    sketches_ = std::move(s);
  }

 private:
  std::map<std::string, std::vector<DistinctSketch>> sketches_;
};

/// The hash the sketches key on: Value::Hash() mixed through splitmix64 so
/// low-entropy inputs (small consecutive ints) spread over the hash space.
uint64_t SketchHash(const Value& v);

}  // namespace plan
}  // namespace cqac

#endif  // CQAC_PLAN_STATS_H_
