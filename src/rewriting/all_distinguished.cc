#include "src/rewriting/all_distinguished.h"

#include <map>
#include <optional>

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/engine/parallel.h"
#include "src/ir/expansion.h"
#include "src/ir/substitution.h"

namespace cqac {
namespace {

struct Choice {
  int view_index;
  VarMap phi;  // query var -> view var/const of this subgoal's image
  std::map<int, Value> const_bindings;  // view var -> query constant

  Choice(int vi, VarMap m) : view_index(vi), phi(std::move(m)) {}
};

// Maps query subgoal `qa` onto view subgoal `va`; with all view variables
// distinguished there is nothing to reject beyond unification failure.
bool TryMap(const Atom& qa, const Atom& va, VarMap* phi,
            std::map<int, Value>* const_bindings) {
  if (qa.predicate != va.predicate || qa.args.size() != va.args.size())
    return false;
  for (size_t p = 0; p < qa.args.size(); ++p) {
    const Term& qt = qa.args[p];
    const Term& vt = va.args[p];
    if (qt.is_const()) {
      if (vt.is_const()) {
        if (!(qt.value() == vt.value())) return false;
      } else {
        // Constant meets a distinguished variable: enforceable by placing
        // the constant at that head position.
        auto [it, inserted] = const_bindings->emplace(vt.var(), qt.value());
        if (!inserted && !(it->second == qt.value())) return false;
      }
      continue;
    }
    if (!phi->Bind(qt.var(), vt)) return false;
  }
  return true;
}

}  // namespace

Result<UnionQuery> RewriteAllDistinguished(EngineContext& ctx, const Query& q,
                                           const ViewSet& views) {
  if (!views.AllVariablesDistinguished())
    return Status::InvalidArgument(
        "RewriteAllDistinguished requires views whose variables are all "
        "distinguished");

  Result<Query> qp_result = Preprocess(q);
  if (!qp_result.ok()) {
    if (qp_result.status().code() == StatusCode::kInconsistent)
      return UnionQuery{};
    return qp_result.status();
  }
  Query qp = std::move(qp_result).value();
  CQAC_RETURN_IF_ERROR(qp.Validate());

  // Per query subgoal, the possible (view, subgoal, mapping) choices.
  // Theorem 3.2's bound: one choice per subgoal suffices, so rewritings
  // have exactly |body(q)| view atoms.
  std::vector<std::vector<Choice>> choices(qp.body().size());
  for (size_t gi = 0; gi < qp.body().size(); ++gi) {
    for (size_t vi = 0; vi < views.size(); ++vi) {
      for (const Atom& va : views[vi].body()) {
        VarMap phi(qp.num_vars());
        std::map<int, Value> consts;
        if (TryMap(qp.body()[gi], va, &phi, &consts)) {
          Choice c(static_cast<int>(vi), std::move(phi));
          c.const_bindings = std::move(consts);
          choices[gi].push_back(std::move(c));
        }
      }
    }
    if (choices[gi].empty()) return UnionQuery{};
  }

  UnionQuery result;
  size_t candidates = 0;
  Status inner = Status::OK();

  // Builds + verifies the candidate for `pick`. On success *accepted holds
  // the compacted rewriting (empty optional = candidate skipped/rejected);
  // a hard error lands in *err.
  auto emit = [&](const std::vector<const Choice*>& pick, Status* err,
                  std::optional<Query>* accepted) {
    Query cand;
    cand.head().predicate = qp.head().predicate;

    // A query variable whose image is a view-body constant is pinned to
    // that constant; conflicting pins kill the candidate.
    std::vector<std::optional<Value>> pin(qp.num_vars());
    for (const Choice* c : pick) {
      for (int qv = 0; qv < qp.num_vars(); ++qv) {
        if (!c->phi.IsBound(qv)) continue;
        const Term& img = c->phi.Get(qv);
        if (!img.is_const()) continue;
        if (pin[qv].has_value() && !(*pin[qv] == img.value())) return true;
        pin[qv] = img.value();
      }
    }
    // Otherwise, with every view variable distinguished, the rewriting term
    // of a query variable is simply a variable of the same name; view-head
    // positions not hit by a query variable get fresh variables.
    auto term_of_qvar = [&cand, &qp, &pin](int qv) {
      if (pin[qv].has_value()) return Term::Const(*pin[qv]);
      return Term::Var(cand.FindOrAddVariable(qp.VarName(qv)));
    };
    for (size_t gi = 0; gi < pick.size(); ++gi) {
      const Choice* c = pick[gi];
      const Query& view = views[c->view_index];
      Atom atom;
      atom.predicate = view.head().predicate;
      for (const Term& ht : view.head().args) {
        if (ht.is_const()) {
          atom.args.push_back(ht);
          continue;
        }
        // Which query term reaches this head variable in this choice?
        std::optional<Term> arg;
        auto cb = c->const_bindings.find(ht.var());
        if (cb != c->const_bindings.end()) arg = Term::Const(cb->second);
        for (int qv = 0; qv < qp.num_vars() && !arg.has_value(); ++qv)
          if (c->phi.IsBound(qv) && c->phi.Get(qv) == Term::Var(ht.var()))
            arg = term_of_qvar(qv);
        if (!arg.has_value())
          arg = Term::Var(cand.AddFreshVariable(
              StrCat(view.head().predicate, "_", view.VarName(ht.var()))));
        atom.args.push_back(*arg);
      }
      cand.AddBodyAtom(std::move(atom));
    }
    for (const Term& t : qp.head().args) {
      if (t.is_const())
        cand.head().args.push_back(t);
      else
        cand.head().args.push_back(term_of_qvar(t.var()));
    }
    // Every comparison of the query transfers verbatim (every variable is
    // exposed).
    for (const Comparison& c : qp.comparisons()) {
      auto xlate = [&](const Term& t) {
        return t.is_const() ? t : term_of_qvar(t.var());
      };
      cand.AddComparison(Comparison(xlate(c.lhs), c.op, xlate(c.rhs)));
    }
    if (!AcsConsistent(cand.comparisons())) return true;
    if (!cand.Validate().ok()) return true;  // a head var never got exposed

    Result<Query> exp = ExpandRewriting(cand, views);
    if (!exp.ok()) {
      *err = exp.status();
      return false;
    }
    // An inconsistent expansion denotes the empty query: it would pass the
    // containment test vacuously, yet contributes nothing — prune it.
    Result<Query> expp = Preprocess(exp.value());
    if (!expp.ok()) {
      if (expp.status().code() == StatusCode::kInconsistent) {
        ++ctx.stats().rewrite_verified_rejects;
        return true;
      }
      *err = expp.status();
      return false;
    }
    Result<bool> contained = IsContained(ctx, expp.value(), qp);
    if (!contained.ok()) {
      *err = contained.status();
      return false;
    }
    if (!contained.value()) {
      ++ctx.stats().rewrite_verified_rejects;
      return true;
    }
    *accepted = CompactVariables(cand);
    return true;
  };

  // Block-wise cartesian product (last subgoal fastest — the order of the
  // old recursive enumeration). Budget charging happens serially at
  // generation with a thread-count-independent block size; each block's
  // candidates verify in parallel and merge in enumeration order.
  struct PickOutcome {
    Status error = Status::OK();
    std::optional<Query> accepted;
  };
  constexpr size_t kBlock = 64;

  std::vector<size_t> idx(choices.size(), 0);
  bool exhausted_product = false;
  while (!exhausted_product && inner.ok()) {
    std::vector<std::vector<const Choice*>> block;
    while (block.size() < kBlock && !exhausted_product) {
      if (++candidates > ctx.budget().max_mappings) {
        ++ctx.stats().budget_exhaustions;
        inner = Status::ResourceExhausted(
            "all-distinguished candidate enumeration exceeded the mapping "
            "budget");
        break;
      }
      inner = ctx.budget().CheckDeadline("all-distinguished enumeration");
      if (!inner.ok()) {
        ++ctx.stats().budget_exhaustions;
        break;
      }
      ++ctx.stats().rewrite_candidates;
      std::vector<const Choice*> pick(choices.size());
      for (size_t gi = 0; gi < choices.size(); ++gi)
        pick[gi] = &choices[gi][idx[gi]];
      block.push_back(std::move(pick));
      size_t gi = choices.size();
      while (gi > 0) {
        if (++idx[gi - 1] < choices[gi - 1].size()) break;
        idx[--gi] = 0;
      }
      if (gi == 0) exhausted_product = true;
    }
    if (block.empty()) break;

    ParallelOutcomes<PickOutcome> outcomes(
        ctx, block.size(),
        [&](size_t i) {
          PickOutcome out;
          emit(block[i], &out.error, &out.accepted);
          return out;
        },
        [](const PickOutcome& o) { return !o.error.ok(); });
    for (size_t i = 0; i < block.size() && inner.ok(); ++i) {
      PickOutcome& o = outcomes.Get(i);
      if (!o.error.ok()) {
        inner = o.error;
        break;
      }
      if (!o.accepted.has_value()) continue;
      bool dup = false;
      for (const Query& existing : result.disjuncts)
        if (existing.ToString() == o.accepted->ToString()) dup = true;
      if (!dup) result.disjuncts.push_back(std::move(*o.accepted));
    }
  }
  CQAC_RETURN_IF_ERROR(inner);
  return result;
}

}  // namespace cqac
