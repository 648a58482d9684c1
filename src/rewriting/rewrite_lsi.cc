#include "src/rewriting/rewrite_lsi.h"

#include <algorithm>
#include <map>
#include <optional>

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/engine/parallel.h"
#include "src/eval/evaluate.h"
#include "src/rewriting/candidate.h"

namespace cqac {
namespace {

/// Union-find with constant pinning over the query's variables: combining
/// MCDs can force two query variables (or a variable and a constant) equal.
class QueryVarUnifier {
 public:
  explicit QueryVarUnifier(int n) : parent_(n), pin_(n) {
    for (int i = 0; i < n; ++i) parent_[i] = i;
  }

  int Find(int x) const {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return true;
    if (a > b) std::swap(a, b);
    if (pin_[b].has_value()) {
      if (pin_[a].has_value()) {
        if (!(*pin_[a] == *pin_[b])) return false;
      } else {
        pin_[a] = pin_[b];
      }
    }
    parent_[b] = a;
    return true;
  }

  bool Pin(int x, const Value& c) {
    x = Find(x);
    if (pin_[x].has_value()) return *pin_[x] == c;
    pin_[x] = c;
    return true;
  }

  const std::optional<Value>& PinOf(int x) const { return pin_[Find(x)]; }

 private:
  mutable std::vector<int> parent_;
  std::vector<std::optional<Value>> pin_;
};

/// Builder for one MCD combination.
class Combiner {
 public:
  Combiner(EngineContext& ctx, const Query& q, const ViewSet& views,
           const std::vector<const Mcd*>& combo)
      : ctx_(ctx), q_(q), views_(views), combo_(combo), uf_(q.num_vars()) {}

  /// Produces all candidate rewritings for this combination (empty when the
  /// combination is infeasible).
  Result<std::vector<Query>> Build() {
    if (!UnifyQueryVars()) return std::vector<Query>{};
    if (!BuildSkeleton()) return std::vector<Query>{};
    CQAC_ASSIGN_OR_RETURN(bool ok, CollectAcWays());
    if (!ok) return std::vector<Query>{};
    return Instantiate();
  }

  /// True when Build failed on a budget charge (the caller counts it).
  bool over_budget() const { return over_budget_; }

 private:
  // ---- Step A: equalities forced by the MCDs. -----------------------------
  bool UnifyQueryVars() {
    for (const Mcd* m : combo_) {
      // Variables mapped to hh-equal view variables become equal; variables
      // mapped to constants (directly or through const_bindings) are pinned.
      std::vector<std::pair<int, int>> var_images;  // (q var, view var)
      for (int x = 0; x < q_.num_vars(); ++x) {
        if (!m->phi.IsBound(x)) continue;
        const Term& w = m->phi.Get(x);
        if (w.is_const()) {
          if (!uf_.Pin(x, w.value())) return false;
          continue;
        }
        int cls = m->hh.Find(w.var());
        auto cb = m->const_bindings.find(cls);
        if (cb != m->const_bindings.end() && !uf_.Pin(x, cb->second))
          return false;
        var_images.emplace_back(x, w.var());
      }
      for (size_t i = 0; i < var_images.size(); ++i)
        for (size_t j = i + 1; j < var_images.size(); ++j)
          if (m->hh.Same(var_images[i].second, var_images[j].second))
            if (!uf_.Union(var_images[i].first, var_images[j].first))
              return false;
    }
    return true;
  }

  // The P-term of query variable `x`.
  Term PTermOf(int x) {
    if (uf_.PinOf(x).has_value()) return Term::Const(*uf_.PinOf(x));
    int rep = uf_.Find(x);
    return Term::Var(p_.FindOrAddVariable(q_.VarName(rep)));
  }

  // ---- Step B: head + view atoms. -----------------------------------------
  bool BuildSkeleton() {
    p_ = Query();
    p_.head().predicate = q_.head().predicate;
    for (const Term& t : q_.head().args) {
      if (t.is_const())
        p_.head().args.push_back(t);
      else
        p_.head().args.push_back(PTermOf(t.var()));
    }

    class_terms_.assign(combo_.size(), {});
    for (size_t mi = 0; mi < combo_.size(); ++mi) {
      const Mcd* m = combo_[mi];
      const Query& view = views_[m->view_index];
      Atom atom;
      atom.predicate = view.head().predicate;
      for (const Term& ht : view.head().args) {
        if (ht.is_const()) {
          atom.args.push_back(ht);
          continue;
        }
        int cls = m->hh.Find(ht.var());
        auto found = class_terms_[mi].find(cls);
        if (found != class_terms_[mi].end()) {
          atom.args.push_back(found->second);
          continue;
        }
        Term arg = Term::Var(-1);
        auto cb = m->const_bindings.find(cls);
        if (cb != m->const_bindings.end()) {
          arg = Term::Const(cb->second);
        } else {
          // A query variable whose image lies in this class?
          int qvar = -1;
          for (int x = 0; x < q_.num_vars() && qvar < 0; ++x) {
            if (!m->phi.IsBound(x)) continue;
            const Term& w = m->phi.Get(x);
            if (w.is_var() && m->hh.Same(w.var(), ht.var())) qvar = x;
          }
          if (qvar >= 0) {
            arg = PTermOf(qvar);
          } else {
            arg = Term::Var(p_.AddFreshVariable(
                StrCat(view.head().predicate, "_", view.VarName(cls))));
          }
        }
        class_terms_[mi].emplace(cls, arg);
        atom.args.push_back(arg);
      }
      p_.AddBodyAtom(std::move(atom));
    }
    return true;
  }

  // The view's comparisons plus hh equalities and constant bindings — the
  // premise available inside one MCD's view for case-(1)/(3) reasoning.
  std::vector<Comparison> ViewPremise(const Mcd* m) const {
    const Query& view = views_[m->view_index];
    std::vector<Comparison> cs = view.comparisons();
    for (int v = 0; v < view.num_vars(); ++v) {
      int r = m->hh.Find(v);
      if (r != v)
        cs.push_back(Comparison(Term::Var(v), CompOp::kEq, Term::Var(r)));
    }
    for (const auto& [cls, c] : m->const_bindings)
      cs.push_back(Comparison(Term::Var(cls), CompOp::kEq, Term::Const(c)));
    return cs;
  }

  // ---- Step C: ways to satisfy each query comparison (Section 4.4). -------
  // Each way is "add this comparison to P" (nullopt = nothing to add).
  Result<bool> CollectAcWays() {
    ac_ways_.clear();
    for (const Comparison& qc : q_.comparisons()) {
      // SI comparison on query variable x; `upper` == LSI.
      const bool upper = qc.lhs.is_var();
      const int x = upper ? qc.lhs.var() : qc.rhs.var();
      const Value bound = upper ? qc.rhs.value() : qc.lhs.value();
      const CompOp theta = qc.op;

      std::vector<std::optional<Comparison>> ways;
      Term t = PTermOf(x);
      if (t.is_const()) {
        bool sat = upper ? EvaluateGroundComparison(t.value(), theta, bound)
                         : EvaluateGroundComparison(bound, theta, t.value());
        if (!sat) return false;
        ac_ways_.push_back({std::nullopt});
        continue;
      }

      for (size_t mi = 0; mi < combo_.size(); ++mi) {
        const Mcd* m = combo_[mi];
        if (!m->phi.IsBound(x)) continue;
        const Term& w = m->phi.Get(x);
        if (!w.is_var()) continue;
        std::vector<Comparison> premise = ViewPremise(m);

        // Case (1): the view already guarantees the comparison.
        Comparison image = upper ? Comparison(w, theta, Term::Const(bound))
                                 : Comparison(Term::Const(bound), theta, w);
        CQAC_ASSIGN_OR_RETURN(bool implied,
                              ImpliesConjunction(ctx_, premise, {image}));
        if (implied) {
          AddWay(&ways, std::nullopt);
          continue;  // nothing stronger needed through this MCD
        }

        // Cases (2) and (3): bound a realized class. For every view head
        // class with a P-term, check whether bounding it bounds w.
        for (const auto& [cls, pterm] : class_terms_[mi]) {
          if (pterm.is_const()) continue;
          Term y = Term::Var(cls);
          if (upper) {
            // Need w <= y (then y theta bound) or w < y (then y <= bound).
            CQAC_ASSIGN_OR_RETURN(
                bool lt, ImpliesConjunction(ctx_, premise, {Comparison(
                             w, CompOp::kLt, y)}));
            if (lt) {
              AddWay(&ways,
                     Comparison(pterm, CompOp::kLe, Term::Const(bound)));
              continue;
            }
            CQAC_ASSIGN_OR_RETURN(
                bool le, ImpliesConjunction(ctx_, premise, {Comparison(
                             w, CompOp::kLe, y)}));
            if (le)
              AddWay(&ways, Comparison(pterm, theta, Term::Const(bound)));
          } else {
            // Lower bound: need y <= w (then bound theta y) or y < w.
            CQAC_ASSIGN_OR_RETURN(
                bool lt, ImpliesConjunction(ctx_, premise, {Comparison(
                             y, CompOp::kLt, w)}));
            if (lt) {
              AddWay(&ways,
                     Comparison(Term::Const(bound), CompOp::kLe, pterm));
              continue;
            }
            CQAC_ASSIGN_OR_RETURN(
                bool le, ImpliesConjunction(ctx_, premise, {Comparison(
                             y, CompOp::kLe, w)}));
            if (le)
              AddWay(&ways, Comparison(Term::Const(bound), theta, pterm));
          }
        }
      }
      if (ways.empty()) return false;  // this comparison cannot be satisfied
      ac_ways_.push_back(std::move(ways));
    }
    return true;
  }

  static void AddWay(std::vector<std::optional<Comparison>>* ways,
                     std::optional<Comparison> way) {
    if (std::find(ways->begin(), ways->end(), way) == ways->end())
      ways->push_back(std::move(way));
  }

  // ---- Step D: cartesian product of the AC alternatives. ------------------
  // The whole product is charged to Budget::max_mappings before any of it
  // is built, and the deadline is polled once per product element.
  Result<std::vector<Query>> Instantiate() {
    const size_t cap = ctx_.budget().max_mappings;
    size_t product = 1;
    for (const std::vector<std::optional<Comparison>>& ways : ac_ways_) {
      if (product > cap / ways.size()) {
        over_budget_ = true;
        return Status::ResourceExhausted(
            "comparison alternatives of an MCD cover exceeded the mapping "
            "budget");
      }
      product *= ways.size();
    }
    std::vector<Query> out;
    std::vector<size_t> idx(ac_ways_.size(), 0);
    for (size_t n = 0; n < product; ++n) {
      Status deadline = ctx_.budget().CheckDeadline("comparison alternatives");
      if (!deadline.ok()) {
        over_budget_ = true;
        return deadline;
      }
      Query candidate = p_;
      for (size_t i = 0; i < ac_ways_.size(); ++i) {
        const std::optional<Comparison>& way = ac_ways_[i][idx[i]];
        if (way.has_value() &&
            std::find(candidate.comparisons().begin(),
                      candidate.comparisons().end(),
                      *way) == candidate.comparisons().end())
          candidate.AddComparison(*way);
      }
      if (AcsConsistent(candidate.comparisons()))
        out.push_back(CompactVariables(candidate));
      // Advance the mixed-radix counter.
      for (size_t i = 0; i < idx.size() && ++idx[i] == ac_ways_[i].size(); ++i)
        idx[i] = 0;
    }
    return out;
  }

  EngineContext& ctx_;
  const Query& q_;
  const ViewSet& views_;
  const std::vector<const Mcd*>& combo_;
  bool over_budget_ = false;

  QueryVarUnifier uf_;
  Query p_;
  // Per MCD in the combo: view-variable class -> P term.
  std::vector<std::map<int, Term>> class_terms_;
  // Per query comparison: the alternative ways to satisfy it.
  std::vector<std::vector<std::optional<Comparison>>> ac_ways_;
};

}  // namespace

Result<UnionQuery> RewriteLsiQuery(EngineContext& ctx, const Query& q,
                                   const ViewSet& views,
                                   const RewriteOptions& options,
                                   RewritingWitness* witness) {
  CQAC_ASSIGN_OR_RETURN(std::optional<Query> prepared,
                        PrepareQuery(q, witness));
  if (!prepared.has_value()) return UnionQuery{};
  const Query& qp = *prepared;
  CQAC_RETURN_IF_ERROR(qp.Validate());

  AcClass cls = qp.Classify();
  if (cls != AcClass::kNone && cls != AcClass::kLsi && cls != AcClass::kRsi)
    return Status::Unsupported(
        StrCat("RewriteLsiQuery handles LSI or RSI queries; got class '",
               AcClassName(cls),
               "' (use RewriteSiQueryDatalog for CQAC-SI queries)"));

  CQAC_ASSIGN_OR_RETURN(ViewSet prepped, PrepareViews(views, witness));

  std::vector<ExportAnalysis> analyses;
  analyses.reserve(prepped.size());
  for (const Query& v : prepped.views()) analyses.emplace_back(v);

  CQAC_ASSIGN_OR_RETURN(std::vector<Mcd> mcds,
                        ConstructMcds(ctx, qp, prepped, analyses));

  // Index MCDs by their smallest covered subgoal for the exact-cover search.
  const size_t num_goals = qp.body().size();
  std::vector<std::vector<const Mcd*>> by_first(num_goals);
  for (const Mcd& m : mcds)
    if (!m.covered.empty()) by_first[m.covered.front()].push_back(&m);

  // Phase 1 (serial, cheap): enumerate the complete exact covers. The
  // budget checks fire at exactly the points the fused search checked
  // them — once per complete cover — so cap behaviour is unchanged.
  std::vector<std::vector<const Mcd*>> combos;
  std::vector<const Mcd*> combo;
  std::vector<bool> used(num_goals, false);
  Status inner = Status::OK();

  auto search = [&](auto&& self, size_t first_uncovered) -> void {
    if (!inner.ok()) return;
    while (first_uncovered < num_goals && used[first_uncovered])
      ++first_uncovered;
    if (first_uncovered == num_goals) {
      // Another complete cover exists beyond the cap: report exhaustion
      // rather than silently truncating the MCR.
      if (combos.size() >= ctx.budget().max_mappings) {
        ++ctx.stats().budget_exhaustions;
        inner = Status::ResourceExhausted(
            "MCD combination search exceeded the mapping budget");
        return;
      }
      inner = ctx.budget().CheckDeadline("MCD combination search");
      if (!inner.ok()) {
        ++ctx.stats().budget_exhaustions;
        return;
      }
      combos.push_back(combo);
      return;
    }
    for (const Mcd* m : by_first[first_uncovered]) {
      bool clash = false;
      for (int g : m->covered)
        if (used[g]) clash = true;
      if (clash) continue;
      for (int g : m->covered) used[g] = true;
      combo.push_back(m);
      self(self, first_uncovered + 1);
      combo.pop_back();
      for (int g : m->covered) used[g] = false;
    }
  };
  search(search, 0);
  CQAC_RETURN_IF_ERROR(inner);

  // Phase 2: build + verify each cover's candidates, fanned out over the
  // task pool. Combos are independent; only the merge below (dedup, witness
  // collection, error reporting) depends on cover order, so it walks the
  // outcomes in cover order and is deterministic at every thread count.
  auto process_combo = [&](size_t ci) -> CandidateOutcome {
    CandidateOutcome out;
    Combiner combiner(ctx, qp, prepped, combos[ci]);
    Result<std::vector<Query>> candidates = combiner.Build();
    if (!candidates.ok()) {
      out.error = candidates.status();
      out.over_budget = combiner.over_budget();
      return out;
    }
    for (Query& cand : candidates.value()) {
      // Verifying a candidate costs far more than building it, so the
      // deadline is polled here too, not only in step D.
      out.error = ctx.budget().CheckDeadline("verifying rewritings");
      if (!out.error.ok()) {
        out.over_budget = true;
        return out;
      }
      ++ctx.stats().rewrite_candidates;
      ContainmentWitness evidence;
      if (options.verify_rewritings || witness != nullptr) {
        Result<bool> accepted =
            VerifyCandidate(ctx, cand, qp, prepped,
                            witness != nullptr ? &evidence : nullptr);
        if (!accepted.ok()) {
          out.error = accepted.status();
          return out;
        }
        if (!accepted.value()) continue;
      }
      out.accepted.push_back(std::move(cand));
      out.witnesses.push_back(std::move(evidence));
    }
    return out;
  };

  ParallelOutcomes<CandidateOutcome> outcomes(
      ctx, combos.size(), process_combo,
      [](const CandidateOutcome& o) { return !o.error.ok(); });

  UnionCollector collector(witness);
  for (size_t ci = 0; ci < combos.size(); ++ci) {
    CandidateOutcome& o = outcomes.Get(ci);
    if (o.over_budget) ++ctx.stats().budget_exhaustions;
    CQAC_RETURN_IF_ERROR(o.error);
    collector.Add(o);
  }
  return collector.Take();
}

}  // namespace cqac
