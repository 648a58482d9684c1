#include "src/rewriting/export_analysis.h"

#include <algorithm>
#include <cassert>

#include "src/base/strings.h"

namespace cqac {

HeadHomomorphism::HeadHomomorphism(int num_vars) : parent_(num_vars) {
  for (int i = 0; i < num_vars; ++i) parent_[i] = i;
}

// No path compression: Find must stay genuinely const, because MCDs (and
// their head homomorphisms) are shared read-only across TaskPool workers.
// Chains are bounded by the view's variable count, so plain walking is
// cheap enough.
int HeadHomomorphism::Find(int var) const {
  while (parent_[var] != var) var = parent_[var];
  return var;
}

void HeadHomomorphism::Union(int a, int b) {
  a = Find(a);
  b = Find(b);
  if (a == b) return;
  if (a > b) std::swap(a, b);
  parent_[b] = a;  // smaller id becomes the representative
}

// Every class of `this` lies inside a class of `other` iff each variable
// shares its class in `other` with its representative here.
bool HeadHomomorphism::RefinedBy(const HeadHomomorphism& other) const {
  assert(num_vars() == other.num_vars());
  for (int i = 0; i < num_vars(); ++i)
    if (!other.Same(i, Find(i))) return false;
  return true;
}

bool HeadHomomorphism::operator==(const HeadHomomorphism& o) const {
  return RefinedBy(o) && o.RefinedBy(*this);
}

HeadHomomorphism HeadHomomorphism::Combine(const HeadHomomorphism& a,
                                           const HeadHomomorphism& b) {
  assert(a.num_vars() == b.num_vars());
  HeadHomomorphism out = a;
  for (int i = 0; i < b.num_vars(); ++i) out.Union(i, b.Find(i));
  return out;
}

std::string HeadHomomorphism::ToString(const Query& view) const {
  std::vector<std::string> classes;
  std::vector<bool> seen(num_vars(), false);
  for (int i = 0; i < num_vars(); ++i) {
    if (seen[i]) continue;
    std::vector<std::string> members;
    for (int j = i; j < num_vars(); ++j) {
      if (Same(i, j)) {
        seen[j] = true;
        members.push_back(view.VarName(j));
      }
    }
    if (members.size() > 1)
      classes.push_back("{" + Join(members, ", ") + "}");
  }
  return "{" + Join(classes, ", ") + "}";
}

ExportAnalysis::ExportAnalysis(const Query& view) : view_(view) {
  distinguished_ = view_.DistinguishedMask();
  // Nodes: variables first, then interned constants.
  std::vector<Value> constants;
  auto node_of = [&](const Term& t) -> int {
    if (t.is_var()) return t.var();
    for (size_t i = 0; i < constants.size(); ++i)
      if (constants[i] == t.value())
        return view_.num_vars() + static_cast<int>(i);
    constants.push_back(t.value());
    return view_.num_vars() + static_cast<int>(constants.size()) - 1;
  };
  // First pass interns everything so adjacency can be sized.
  for (const Comparison& c : view_.comparisons()) {
    node_of(c.lhs);
    node_of(c.rhs);
  }
  num_nodes_ = view_.num_vars() + static_cast<int>(constants.size());
  adj_.assign(num_nodes_, {});
  radj_.assign(num_nodes_, {});
  for (const Comparison& c : view_.comparisons()) {
    int a = node_of(c.lhs);
    int b = node_of(c.rhs);
    switch (c.op) {
      case CompOp::kLt:
        adj_[a].push_back({b, true});
        radj_[b].push_back({a, true});
        break;
      case CompOp::kLe:
        adj_[a].push_back({b, false});
        radj_[b].push_back({a, false});
        break;
      case CompOp::kEq:
        // Preprocessing removes these; treat defensively as two <= edges.
        adj_[a].push_back({b, false});
        radj_[b].push_back({a, false});
        adj_[b].push_back({a, false});
        radj_[a].push_back({b, false});
        break;
    }
  }
  // Implicit order edges between distinct numeric constants.
  for (size_t i = 0; i < constants.size(); ++i) {
    if (!constants[i].is_number()) continue;
    for (size_t j = 0; j < constants.size(); ++j) {
      if (i == j || !constants[j].is_number()) continue;
      if (constants[i].number() < constants[j].number()) {
        int a = view_.num_vars() + static_cast<int>(i);
        int b = view_.num_vars() + static_cast<int>(j);
        adj_[a].push_back({b, true});
        radj_[b].push_back({a, true});
      }
    }
  }
}

ExportAnalysis::PathScan ExportAnalysis::ScanPaths(int from, int to) const {
  PathScan out;
  if (from == to) return out;  // trivial path not meaningful here
  std::vector<bool> on_path(num_nodes_, false);

  // DFS over simple paths tracking whether the current path used a strict
  // edge or visited an intermediate distinguished variable.
  auto dfs = [&](auto&& self, int node, bool used_strict,
                 bool saw_dist) -> void {
    if (node == to) {
      out.found = true;
      if (used_strict)
        out.exists_strict_path = true;
      else
        out.exists_le_only_path = true;
      if (saw_dist) out.exists_path_with_intermediate_dist = true;
      return;
    }
    on_path[node] = true;
    for (const Edge& e : adj_[node]) {
      if (on_path[e.to]) continue;
      bool intermediate_dist =
          saw_dist || (e.to != to && e.to < view_.num_vars() &&
                       distinguished_[e.to]);
      self(self, e.to, used_strict || e.strict, intermediate_dist);
    }
    on_path[node] = false;
  };
  dfs(dfs, from, false, false);
  return out;
}

std::vector<int> ExportAnalysis::LeqSet(int var) const {
  std::vector<int> out;
  for (int y = 0; y < view_.num_vars(); ++y) {
    if (y == var || !distinguished_[y]) continue;
    PathScan scan = ScanPaths(y, var);
    if (scan.found && !scan.exists_strict_path &&
        !scan.exists_path_with_intermediate_dist)
      out.push_back(y);
  }
  return out;
}

std::vector<int> ExportAnalysis::GeqSet(int var) const {
  std::vector<int> out;
  for (int y = 0; y < view_.num_vars(); ++y) {
    if (y == var || !distinguished_[y]) continue;
    PathScan scan = ScanPaths(var, y);
    if (scan.found && !scan.exists_strict_path &&
        !scan.exists_path_with_intermediate_dist)
      out.push_back(y);
  }
  return out;
}

bool ExportAnalysis::IsExportable(int var) const {
  if (var < static_cast<int>(distinguished_.size()) && distinguished_[var])
    return false;  // already distinguished, nothing to export
  return !LeqSet(var).empty() && !GeqSet(var).empty();
}

std::vector<HeadHomomorphism> ExportAnalysis::ExportHomomorphisms(
    int var) const {
  std::vector<HeadHomomorphism> out;
  for (int y1 : LeqSet(var)) {
    for (int y2 : GeqSet(var)) {
      if (y1 == y2) continue;
      HeadHomomorphism h(view_.num_vars());
      h.Union(y1, y2);
      // Equating y1 = y2 collapses everything between them, including `var`.
      h.Union(y1, var);
      if (std::find(out.begin(), out.end(), h) == out.end())
        out.push_back(std::move(h));
    }
  }
  return out;
}

bool ExportAnalysis::Usable(int var) const {
  return distinguished_[var] || IsExportable(var);
}

ExportAnalysis::PathInfo ExportAnalysis::PathBetween(int from_var,
                                                     int to_var) const {
  PathScan scan = ScanPaths(from_var, to_var);
  PathInfo info;
  info.reachable = scan.found;
  info.some_path_all_le = scan.exists_le_only_path;
  return info;
}

std::vector<std::pair<int, ExportAnalysis::PathInfo>>
ExportAnalysis::DistinguishedAbove(int var) const {
  std::vector<std::pair<int, PathInfo>> out;
  for (int y = 0; y < view_.num_vars(); ++y) {
    if (y == var || !distinguished_[y]) continue;
    PathInfo info = PathBetween(var, y);
    if (info.reachable) out.emplace_back(y, info);
  }
  return out;
}

std::vector<std::pair<int, ExportAnalysis::PathInfo>>
ExportAnalysis::DistinguishedBelow(int var) const {
  std::vector<std::pair<int, PathInfo>> out;
  for (int y = 0; y < view_.num_vars(); ++y) {
    if (y == var || !distinguished_[y]) continue;
    PathInfo info = PathBetween(y, var);
    if (info.reachable) out.emplace_back(y, info);
  }
  return out;
}

}  // namespace cqac
