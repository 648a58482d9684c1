// ColumnIndex: the one equality index the join engine probes
// (docs/eval.md#indexes).
//
// It maps each value of one column of a relation to the relation's tuples
// holding that value. Integral keys (nearly every key in practice) live in
// an open-addressing table probed with a raw int64_t, so a small-int batch
// column probes without materializing a Value; symbols and non-integral
// rationals live in a Value-keyed hash map. An integral Value never equals
// a non-integral one, so the split is exact.
//
// Entries point into the relation's std::set nodes, which are
// address-stable: inserting or erasing other tuples never invalidates
// them, and Insert/Remove patch the index for the tuple that changed — an
// index is never rebuilt from its relation. Each key's tuples stay in
// relation order, so a patched index holds exactly what a fresh build over
// the same relation would, whatever its history.
//
// Layout: the integral groups are packed into one pointer array (a build
// allocates per index, not per key), each group a [start, start + cap)
// range of it. A group that outgrows its range moves to the end of the
// array with twice the room; once more than half the array is abandoned
// ranges, the live ranges are compacted. Hits stay valid until the next
// Insert or Remove.
//
// Two owners: a Database keeps one per probed (relation, column) for as
// long as the relation lives (Database::Index); a join over a bare
// relation (a delta, a fan-out chunk, a datalog round) builds one for the
// call.
#ifndef CQAC_EVAL_COLUMN_INDEX_H_
#define CQAC_EVAL_COLUMN_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/eval/database.h"

namespace cqac {

class ColumnIndex {
 public:
  /// The tuples a probe matched, in relation order.
  struct Hits {
    const Tuple* const* data = nullptr;
    size_t size = 0;
    const Tuple* const* begin() const { return data; }
    const Tuple* const* end() const { return data + size; }
  };

  /// Indexes column `col` of every tuple of `rel`. Tuples too short to
  /// have that column can match no probe and are left out.
  ColumnIndex(const Relation& rel, size_t col);

  /// Tuples whose column equals `v`.
  Hits Probe(const Value& v) const;

  /// Tuples whose column is the integer `k`.
  Hits ProbeInt(int64_t k) const;

  /// Patches the index for one stored tuple (a pointer into the indexed
  /// relation): Insert after the tuple landed in the set, Remove before it
  /// is erased.
  void Insert(const Tuple* t);
  void Remove(const Tuple* t);

 private:
  struct IntGroup {
    int64_t key;
    uint32_t start;  // into slots_
    uint32_t len;
    uint32_t cap;
  };

  /// The table slot holding `k`, or the empty slot that ends its probe run.
  size_t Slot(int64_t k) const;
  /// Sizes the table for groups_ and points it at them.
  void Rehash();
  /// Gives group `g` room for one more tuple.
  void Reserve(IntGroup* g);
  /// Drops the emptied integral group whose table slot is `slot`.
  void EraseIntGroup(size_t slot);
  /// Repacks the live group ranges once abandoned ones dominate slots_.
  void MaybeCompact();

  size_t col_;
  std::vector<IntGroup> groups_;     // integral keys, dense
  std::vector<int32_t> table_;       // linear probing into groups_; -1 = empty
  size_t mask_ = 0;
  std::vector<const Tuple*> slots_;  // the groups' tuples
  size_t abandoned_ = 0;             // slots_ entries no group owns
  std::unordered_map<Value, std::vector<const Tuple*>> other_;  // other keys
};

}  // namespace cqac

#endif  // CQAC_EVAL_COLUMN_INDEX_H_
