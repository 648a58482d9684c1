#include "src/rewriting/all_distinguished.h"

#include <optional>

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/rewriting/candidate.h"

namespace cqac {
namespace {

// Theorem 3.2's candidate for `pick` (one choice per query subgoal), or
// nullopt when the pins conflict, the comparisons are inconsistent or some
// head variable is never exposed.
std::optional<Query> BuildCandidate(
    const Query& qp, const ViewSet& views,
    const std::vector<const SubgoalMapping*>& pick) {
  Query cand;
  cand.head().predicate = qp.head().predicate;

  // A query variable whose image is a view-body constant is pinned to that
  // constant; conflicting pins kill the candidate.
  std::vector<std::optional<Value>> pin(qp.num_vars());
  for (const SubgoalMapping* c : pick) {
    for (int qv = 0; qv < qp.num_vars(); ++qv) {
      if (!c->phi.IsBound(qv)) continue;
      const Term& img = c->phi.Get(qv);
      if (!img.is_const()) continue;
      if (pin[qv].has_value() && !(*pin[qv] == img.value()))
        return std::nullopt;
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
  for (const SubgoalMapping* c : pick) {
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
  if (!AcsConsistent(cand.comparisons())) return std::nullopt;
  if (!cand.Validate().ok()) return std::nullopt;  // a head var never exposed
  return cand;
}

}  // namespace

Result<UnionQuery> RewriteAllDistinguished(EngineContext& ctx, const Query& q,
                                           const ViewSet& views) {
  if (!views.AllVariablesDistinguished())
    return Status::InvalidArgument(
        "RewriteAllDistinguished requires views whose variables are all "
        "distinguished");

  CQAC_ASSIGN_OR_RETURN(std::optional<Query> prepared,
                        PrepareQuery(q, nullptr));
  if (!prepared.has_value()) return UnionQuery{};
  const Query& qp = *prepared;
  CQAC_RETURN_IF_ERROR(qp.Validate());

  // Per query subgoal, the possible (view, subgoal, mapping) choices.
  // Theorem 3.2's bound: one choice per subgoal suffices, so rewritings
  // have exactly |body(q)| view atoms.
  std::vector<std::vector<SubgoalMapping>> choices;
  if (!MapSubgoals(qp, views, &choices)) return UnionQuery{};

  UnionCollector collector(nullptr);
  ProductCounts counts;
  CQAC_RETURN_IF_ERROR(VerifyProduct(
      ctx, choices,
      "all-distinguished candidate enumeration exceeded the mapping budget",
      "all-distinguished enumeration",
      [&](const std::vector<const SubgoalMapping*>& pick) {
        CandidateOutcome out;
        std::optional<Query> cand = BuildCandidate(qp, views, pick);
        if (!cand.has_value()) return out;
        Result<bool> accepted = VerifyCandidate(ctx, *cand, qp, views, nullptr);
        if (!accepted.ok()) {
          out.error = accepted.status();
        } else if (!accepted.value()) {
          ++out.rejects;
        } else {
          out.accepted.push_back(CompactVariables(*cand));
          out.witnesses.emplace_back();
        }
        return out;
      },
      &collector, &counts));
  return collector.Take();
}

}  // namespace cqac
