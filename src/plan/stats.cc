#include "src/plan/stats.h"

namespace cqac {
namespace plan {

uint64_t SketchHash(const Value& v) {
  // splitmix64 finalizer over the structural hash.
  uint64_t x = static_cast<uint64_t>(v.Hash()) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void DistinctSketch::Observe(uint64_t hash) {
  if (!saturated_) {
    smallest_.insert(hash);
    if (smallest_.size() > kK) {
      smallest_.erase(std::prev(smallest_.end()));
      saturated_ = true;
    }
    return;
  }
  auto last = std::prev(smallest_.end());
  if (hash >= *last) return;
  if (smallest_.insert(hash).second) smallest_.erase(std::prev(smallest_.end()));
}

size_t DistinctSketch::Estimate() const {
  if (!saturated_) return smallest_.size();
  // k-th smallest of d uniform hashes sits near k/d of the space, so
  // d ~= (k - 1) * 2^64 / kth.
  const double kth = static_cast<double>(*smallest_.rbegin());
  if (kth <= 0) return smallest_.size();
  const double est = (static_cast<double>(kK) - 1.0) * 18446744073709551616.0 /
                     kth;
  return static_cast<size_t>(est);
}

void RelationStats::OnInsert(const std::string& predicate,
                             const std::vector<Value>& tuple) {
  std::vector<DistinctSketch>& cols = sketches_[predicate];
  if (cols.size() < tuple.size()) cols.resize(tuple.size());
  for (size_t c = 0; c < tuple.size(); ++c)
    cols[c].Observe(SketchHash(tuple[c]));
}

size_t RelationStats::DistinctEstimate(const std::string& predicate,
                                       size_t column) const {
  auto it = sketches_.find(predicate);
  if (it == sketches_.end() || column >= it->second.size()) return 0;
  return it->second[column].Estimate();
}

size_t StatsView::Rows(const std::string& predicate) const {
  auto it = rels_.find(predicate);
  return it == rels_.end() ? 0 : it->second.rows;
}

size_t StatsView::DistinctEstimate(const std::string& predicate,
                                   size_t column) const {
  auto it = rels_.find(predicate);
  if (it == rels_.end() || column >= it->second.distinct.size()) return 0;
  return it->second.distinct[column];
}

}  // namespace plan
}  // namespace cqac
