#include "src/plan/planner.h"

#include <cstdio>
#include <numeric>

#include "src/base/strings.h"

namespace cqac {
namespace plan {
namespace {

/// Deterministic double rendering for decisions and surfaced plans.
std::string Est(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Estimated rows of `a` after crediting constant-bound columns with their
/// distinct-count selectivity (unknown distincts give no credit).
double EffectiveRows(const Atom& a, const Cardinalities& cards) {
  double rows = static_cast<double>(cards.rows(a.predicate));
  for (size_t c = 0; c < a.args.size(); ++c) {
    if (!a.args[c].is_const()) continue;
    size_t d = cards.distinct(a.predicate, c);
    if (d > 1) rows /= static_cast<double>(d);
  }
  return rows;
}

/// Estimated growth factor of joining `a` into an intermediate that already
/// binds the variables flagged in `bound`: effective rows divided by the
/// distinct count of every join-bound column (the independence-assumption
/// staple).
double GrowthFactor(const Atom& a, const Cardinalities& cards,
                    const std::vector<bool>& bound) {
  double g = EffectiveRows(a, cards);
  for (size_t c = 0; c < a.args.size(); ++c) {
    const Term& t = a.args[c];
    if (!t.is_var()) continue;
    if (t.var() >= static_cast<int>(bound.size()) || !bound[t.var()]) continue;
    size_t d = cards.distinct(a.predicate, c);
    if (d > 1) g /= static_cast<double>(d);
  }
  return g;
}

void BindAtomVars(const Atom& a, std::vector<bool>* bound) {
  for (const Term& t : a.args)
    if (t.is_var() && t.var() < static_cast<int>(bound->size()))
      (*bound)[t.var()] = true;
}

/// Summed intermediate-result sizes of executing `q`'s body in `order`.
double OrderCost(const Query& q, const std::vector<size_t>& order,
                 const Cardinalities& cards) {
  std::vector<bool> bound(q.num_vars(), false);
  double inter = 1;
  double cost = 0;
  for (size_t i : order) {
    const Atom& a = q.body()[i];
    inter *= GrowthFactor(a, cards, bound);
    cost += inter;
    BindAtomVars(a, &bound);
  }
  return cost;
}

std::string OrderToString(const std::vector<size_t>& order) {
  std::vector<std::string> parts;
  parts.reserve(order.size());
  for (size_t i : order) parts.push_back(StrCat(i));
  return StrCat("[", Join(parts, ", "), "]");
}

}  // namespace

std::string Decision::ToString() const {
  std::string s = StrCat(kind, ": ", choice, " (est ", Est(est_chosen),
                         " vs ", Est(est_alternative), ")");
  if (forced) s += " [forced]";
  if (!detail.empty()) s += StrCat(" — ", detail);
  return s;
}

std::string Decision::ToJson() const {
  return StrCat("{\"kind\":\"", kind, "\",\"choice\":\"", choice,
                "\",\"est_chosen\":", Est(est_chosen),
                ",\"est_alternative\":", Est(est_alternative),
                ",\"forced\":", forced ? "true" : "false", ",\"detail\":\"",
                detail, "\"}");
}

std::string Plan::ToString() const {
  std::string out;
  for (const Decision& d : decisions) out += StrCat("  ", d.ToString(), "\n");
  return out;
}

std::string Plan::ToJson() const {
  std::string out = "{\"decisions\":[";
  for (size_t i = 0; i < decisions.size(); ++i)
    out += StrCat(i ? "," : "", decisions[i].ToJson());
  out += "]}";
  return out;
}

JoinOrderPlan PlanJoinOrder(const Query& q, const Cardinalities& cards) {
  const size_t n = q.body().size();
  JoinOrderPlan p;
  p.order.resize(n);
  std::iota(p.order.begin(), p.order.end(), size_t{0});
  p.est_syntactic = OrderCost(q, p.order, cards);
  p.est_planned = p.est_syntactic;
  if (n < 2) return p;

  // Greedy: repeatedly take the unused atom with the smallest estimated
  // growth against the variables bound so far. Ties break on the original
  // index, which keeps the choice deterministic and identity-favoring.
  std::vector<bool> used(n, false);
  std::vector<bool> bound(q.num_vars(), false);
  std::vector<size_t> greedy;
  greedy.reserve(n);
  for (size_t step = 0; step < n; ++step) {
    size_t best = n;
    double best_growth = 0;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      double g = GrowthFactor(q.body()[i], cards, bound);
      if (best == n || g < best_growth) {
        best = i;
        best_growth = g;
      }
    }
    used[best] = true;
    greedy.push_back(best);
    BindAtomVars(q.body()[best], &bound);
  }

  const double greedy_cost = OrderCost(q, greedy, cards);
  // Keep the syntactic order unless the model strictly prefers the greedy
  // one — "matches or beats" by construction, and no churn on ties.
  if (greedy != p.order && greedy_cost < p.est_syntactic) {
    p.order = std::move(greedy);
    p.est_planned = greedy_cost;
    p.reordered = true;
  }
  return p;
}

std::string JoinOrderPlan::ToString() const {
  return StrCat(reordered ? OrderToString(order) : "syntactic", " est ",
                Est(est_planned), " (syntactic ", Est(est_syntactic), ")");
}

Decision JoinOrderPlan::ToDecision() const {
  Decision d;
  d.kind = "join-order";
  d.choice = reordered ? OrderToString(order) : "syntactic";
  d.est_chosen = est_planned;
  d.est_alternative = est_syntactic;
  return d;
}

double CountingDeltaEstimate(
    const Query& q, FunctionRef<size_t(const std::string&)> delta_size) {
  double total = 0;
  for (const Atom& a : q.body()) {
    size_t d = delta_size(a.predicate);
    if (d > 0)
      total += static_cast<double>(d) * static_cast<double>(q.body().size());
  }
  return total;
}

double CountingRebuildEstimate(
    const Query& q, FunctionRef<size_t(const std::string&)> rel_size) {
  double total = 0;
  for (const Atom& a : q.body())
    total += static_cast<double>(rel_size(a.predicate));
  return total;
}

IvmPathChoice ChooseIvmPath(EngineContext& ctx, double est_incremental,
                            double est_rebuild, size_t max_touched,
                            IvmPath pin) {
  ++ctx.stats().plan_decisions;
  IvmPathChoice c;
  if (pin != IvmPath::kPlanned) {
    c.rebuild = pin == IvmPath::kRebuild;
    c.forced = true;
    return c;
  }
  if (max_touched > kMaxSubsetPositions) {
    // Structural guard, not a cost call: the subset expansion alone would
    // dwarf a rebuild.
    c.rebuild = true;
    c.forced = true;
    return c;
  }
  c.rebuild = est_incremental > est_rebuild;
  return c;
}

}  // namespace plan
}  // namespace cqac
