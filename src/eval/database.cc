#include "src/eval/database.h"

#include "src/base/strings.h"
#include "src/eval/column_index.h"
#include "src/ir/parser.h"

namespace cqac {

const Relation Database::kEmpty;

Database::IndexTable::IndexTable() = default;
Database::IndexTable::~IndexTable() = default;
Database::IndexTable::IndexTable(const IndexTable&) {}
Database::IndexTable& Database::IndexTable::operator=(const IndexTable&) {
  by_pred.clear();
  return *this;
}
Database::IndexTable::IndexTable(IndexTable&& o) noexcept
    : by_pred(std::move(o.by_pred)) {
  o.by_pred.clear();
}
Database::IndexTable& Database::IndexTable::operator=(IndexTable&& o) noexcept {
  by_pred = std::move(o.by_pred);
  o.by_pred.clear();
  return *this;
}

void Database::IndexTable::OnInsert(const std::string& predicate,
                                    const Tuple* t) {
  if (by_pred.empty()) return;
  auto it = by_pred.find(predicate);
  if (it == by_pred.end()) return;
  for (const auto& index : it->second)
    if (index != nullptr) index->Insert(t);
}

void Database::IndexTable::OnRemove(const std::string& predicate,
                                    const Tuple* t) {
  if (by_pred.empty()) return;
  auto it = by_pred.find(predicate);
  if (it == by_pred.end()) return;
  for (const auto& index : it->second)
    if (index != nullptr) index->Remove(t);
}

const ColumnIndex& Database::Index(const std::string& predicate, size_t col,
                                   bool* built) const {
  std::lock_guard<std::mutex> lock(indexes_.mu);
  auto& cols = indexes_.by_pred[predicate];
  if (cols.size() <= col) cols.resize(col + 1);
  if (built != nullptr) *built = cols[col] == nullptr;
  if (cols[col] == nullptr)
    cols[col] = std::make_unique<ColumnIndex>(Get(predicate), col);
  return *cols[col];
}

Status Database::Insert(const std::string& predicate, Tuple tuple) {
  auto it = relations_.find(predicate);
  if (it != relations_.end() && !it->second.empty() &&
      it->second.begin()->size() != tuple.size())
    return Status::InvalidArgument(
        StrCat("arity mismatch inserting into '", predicate, "': got ",
               tuple.size(), ", relation has ", it->second.begin()->size()));
  stats_.OnInsert(predicate, tuple);
  auto [pos, inserted] = relations_[predicate].insert(std::move(tuple));
  if (inserted) indexes_.OnInsert(predicate, &*pos);
  return Status::OK();
}

Status Database::InsertRelation(const std::string& predicate, Relation rel) {
  if (rel.empty()) return Status::OK();
  const size_t arity = rel.begin()->size();
  for (const Tuple& t : rel)
    if (t.size() != arity)
      return Status::InvalidArgument(
          StrCat("arity mismatch inserting into '", predicate, "': got ",
                 t.size(), ", relation has ", arity));
  auto it = relations_.find(predicate);
  if (it != relations_.end() && !it->second.empty() &&
      it->second.begin()->size() != arity)
    return Status::InvalidArgument(
        StrCat("arity mismatch inserting into '", predicate, "': got ", arity,
               ", relation has ", it->second.begin()->size()));
  // Observe before the set is moved in wholesale; re-observing tuples the
  // merge later discards as duplicates is a no-op on the sketches.
  for (const Tuple& t : rel) stats_.OnInsert(predicate, t);
  Relation& dest =
      it == relations_.end() ? relations_[predicate] : it->second;
  if (dest.empty()) {
    // Moving a set keeps its nodes, so the moved-in tuples index in place.
    dest = std::move(rel);
    for (const Tuple& t : dest) indexes_.OnInsert(predicate, &t);
    return Status::OK();
  }
  // Splice node by node (what set::merge does) to learn which tuples were
  // new; duplicates stay behind in `rel`.
  while (!rel.empty()) {
    auto spliced = dest.insert(rel.extract(rel.begin()));
    if (spliced.inserted) indexes_.OnInsert(predicate, &*spliced.position);
  }
  return Status::OK();
}

bool Database::Remove(const std::string& predicate, const Tuple& tuple) {
  auto it = relations_.find(predicate);
  if (it == relations_.end()) return false;
  auto pos = it->second.find(tuple);
  if (pos == it->second.end()) return false;
  indexes_.OnRemove(predicate, &*pos);
  it->second.erase(pos);
  return true;
}

void Database::EraseRelation(const std::string& predicate) {
  indexes_.by_pred.erase(predicate);
  relations_.erase(predicate);
}

const Relation& Database::Get(const std::string& predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? kEmpty : it->second;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.size();
  return n;
}

Status Database::Merge(const Database& other) {
  for (const auto& [name, rel] : other.relations_)
    for (const Tuple& t : rel) CQAC_RETURN_IF_ERROR(Insert(name, t));
  return Status::OK();
}

Result<Database> Database::FromFacts(const std::string& text) {
  CQAC_ASSIGN_OR_RETURN(std::vector<Query> facts, ParseRules(text));
  Database db;
  for (const Query& f : facts) {
    if (!f.body().empty() || !f.comparisons().empty())
      return Status::InvalidArgument(
          StrCat("'", f.ToString(), "' is a rule, not a fact"));
    Tuple t;
    for (const Term& arg : f.head().args) {
      if (arg.is_var())
        return Status::InvalidArgument(
            StrCat("fact '", f.head().predicate, "' contains a variable"));
      t.push_back(arg.value());
    }
    CQAC_RETURN_IF_ERROR(db.Insert(f.head().predicate, std::move(t)));
  }
  return db;
}

std::string TupleToString(const Tuple& t) {
  std::vector<std::string> parts;
  parts.reserve(t.size());
  for (const Value& v : t) parts.push_back(v.ToString());
  return "(" + Join(parts, ", ") + ")";
}

std::string Database::ToString() const {
  std::vector<std::string> lines;
  for (const auto& [name, rel] : relations_)
    for (const Tuple& t : rel) lines.push_back(name + TupleToString(t) + ".");
  return Join(lines, "\n");
}

}  // namespace cqac
