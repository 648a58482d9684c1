#include "src/eval/column_index.h"

#include <algorithm>

namespace cqac {

namespace {

constexpr size_t kMinTable = 16;
constexpr size_t kMinCompact = 1024;  // never compact slot arrays smaller

uint64_t HashInt(int64_t k) {
  uint64_t x = static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ull;
  return x ^ (x >> 29);
}

bool IntKey(const Value& v, int64_t* k) {
  if (!v.is_number() || !v.number().is_integer()) return false;
  *k = v.number().num();
  return true;
}

bool TupleLess(const Tuple* a, const Tuple* b) { return *a < *b; }

}  // namespace

ColumnIndex::ColumnIndex(const Relation& rel, size_t col) : col_(col) {
  // Integral keys: collect, stable-sort by key (equal keys keep relation
  // order) and pack each group at its exact size. Other keys append in
  // relation order.
  std::vector<std::pair<int64_t, const Tuple*>> entries;
  entries.reserve(rel.size());
  for (const Tuple& t : rel) {
    if (col_ >= t.size()) continue;
    int64_t k;
    if (IntKey(t[col_], &k))
      entries.emplace_back(k, &t);
    else
      other_[t[col_]].push_back(&t);
  }
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(entries.begin(), entries.end(), by_key))
    std::stable_sort(entries.begin(), entries.end(), by_key);

  size_t keys = 0;
  for (size_t i = 0; i < entries.size(); ++i)
    keys += i == 0 || entries[i].first != entries[i - 1].first;
  groups_.reserve(keys);
  slots_.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].first != entries[i - 1].first)
      groups_.push_back(
          IntGroup{entries[i].first, static_cast<uint32_t>(i), 0, 0});
    ++groups_.back().len;
    ++groups_.back().cap;
    slots_.push_back(entries[i].second);
  }
  Rehash();
}

void ColumnIndex::Rehash() {
  size_t cap = kMinTable;
  while (cap < 2 * groups_.size()) cap <<= 1;  // load factor <= 1/2
  table_.assign(cap, -1);
  mask_ = cap - 1;
  for (size_t g = 0; g < groups_.size(); ++g) {
    size_t i = HashInt(groups_[g].key) & mask_;
    while (table_[i] >= 0) i = (i + 1) & mask_;
    table_[i] = static_cast<int32_t>(g);
  }
}

size_t ColumnIndex::Slot(int64_t k) const {
  size_t i = HashInt(k) & mask_;
  while (table_[i] >= 0 && groups_[table_[i]].key != k) i = (i + 1) & mask_;
  return i;
}

ColumnIndex::Hits ColumnIndex::ProbeInt(int64_t k) const {
  const int32_t g = table_[Slot(k)];
  if (g < 0) return {};
  return {slots_.data() + groups_[g].start, groups_[g].len};
}

ColumnIndex::Hits ColumnIndex::Probe(const Value& v) const {
  int64_t k;
  if (IntKey(v, &k)) return ProbeInt(k);
  auto it = other_.find(v);
  if (it == other_.end()) return {};
  return {it->second.data(), it->second.size()};
}

void ColumnIndex::Insert(const Tuple* t) {
  if (col_ >= t->size()) return;
  int64_t k;
  if (!IntKey((*t)[col_], &k)) {
    std::vector<const Tuple*>& g = other_[(*t)[col_]];
    g.insert(std::upper_bound(g.begin(), g.end(), t, TupleLess), t);
    return;
  }
  size_t slot = Slot(k);
  if (table_[slot] < 0) {  // a new key, with an empty range at the end
    groups_.push_back(IntGroup{k, static_cast<uint32_t>(slots_.size()), 0, 0});
    if (2 * groups_.size() > table_.size()) {
      Rehash();
      slot = Slot(k);
    } else {
      table_[slot] = static_cast<int32_t>(groups_.size() - 1);
    }
  }
  IntGroup* g = &groups_[table_[slot]];
  Reserve(g);
  auto begin = slots_.begin() + g->start;
  auto pos = std::upper_bound(begin, begin + g->len, t, TupleLess);
  std::move_backward(pos, begin + g->len, begin + g->len + 1);
  *pos = t;
  ++g->len;
}

void ColumnIndex::Reserve(IntGroup* g) {
  if (g->len < g->cap) return;
  const uint32_t cap = std::max<uint32_t>(1, 2 * g->cap);
  if (g->start + g->cap == slots_.size()) {  // last range: grow in place
    slots_.resize(g->start + cap);
  } else {
    const size_t start = slots_.size();
    slots_.resize(start + cap);
    std::copy(slots_.begin() + g->start, slots_.begin() + g->start + g->len,
              slots_.begin() + start);
    abandoned_ += g->cap;
    g->start = static_cast<uint32_t>(start);
  }
  g->cap = cap;
  MaybeCompact();
}

void ColumnIndex::Remove(const Tuple* t) {
  if (col_ >= t->size()) return;
  const Value& v = (*t)[col_];
  int64_t k;
  if (!IntKey(v, &k)) {
    auto it = other_.find(v);
    if (it == other_.end()) return;
    std::vector<const Tuple*>& g = it->second;
    auto pos = std::lower_bound(g.begin(), g.end(), t, TupleLess);
    if (pos != g.end() && *pos == t) g.erase(pos);
    if (g.empty()) other_.erase(it);
    return;
  }
  const size_t slot = Slot(k);
  if (table_[slot] < 0) return;
  IntGroup& g = groups_[table_[slot]];
  auto begin = slots_.begin() + g.start;
  auto end = begin + g.len;
  auto pos = std::lower_bound(begin, end, t, TupleLess);
  if (pos == end || *pos != t) return;
  std::move(pos + 1, end, pos);
  if (--g.len == 0) EraseIntGroup(slot);
}

void ColumnIndex::EraseIntGroup(size_t slot) {
  const int32_t g = table_[slot];
  abandoned_ += groups_[g].cap;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically in (hole, entry].
  size_t hole = slot;
  for (size_t j = (slot + 1) & mask_; table_[j] >= 0; j = (j + 1) & mask_) {
    const size_t home = HashInt(groups_[table_[j]].key) & mask_;
    const bool stays = hole <= j ? (home > hole && home <= j)
                                 : (home > hole || home <= j);
    if (stays) continue;
    table_[hole] = table_[j];
    hole = j;
  }
  table_[hole] = -1;
  // Keep groups_ dense: the last group moves into the freed position.
  const int32_t last = static_cast<int32_t>(groups_.size() - 1);
  if (g != last) {
    table_[Slot(groups_[last].key)] = g;
    groups_[g] = groups_[last];
  }
  groups_.pop_back();
  MaybeCompact();
}

void ColumnIndex::MaybeCompact() {
  if (slots_.size() < kMinCompact || 2 * abandoned_ <= slots_.size()) return;
  std::vector<const Tuple*> packed;
  packed.reserve(slots_.size() - abandoned_);
  for (IntGroup& g : groups_) {
    const size_t start = packed.size();
    packed.insert(packed.end(), slots_.begin() + g.start,
                  slots_.begin() + g.start + g.cap);
    g.start = static_cast<uint32_t>(start);
  }
  slots_ = std::move(packed);
  abandoned_ = 0;
}

}  // namespace cqac
