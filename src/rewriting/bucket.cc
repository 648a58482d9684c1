#include "src/rewriting/bucket.h"

#include <optional>
#include <set>

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/ir/substitution.h"
#include "src/rewriting/candidate.h"

namespace cqac {
namespace {

// The bucket algorithm's candidate for `pick` (one bucket entry per query
// subgoal), or nullopt when the pick cannot return some head variable or,
// under `ac_aware`, cannot carry some query comparison.
std::optional<Query> BuildCandidate(
    const Query& qp, const ViewSet& views,
    const std::vector<const SubgoalMapping*>& pick, bool ac_aware) {
  Query cand;
  cand.head().predicate = qp.head().predicate;

  // Query variable -> candidate term: a variable is exposed if some picked
  // entry maps it to a distinguished view variable or constant.
  std::vector<std::optional<Term>> qvar_term(qp.num_vars());
  auto term_for = [&](int qv) -> Term {
    if (!qvar_term[qv].has_value())
      qvar_term[qv] = Term::Var(cand.FindOrAddVariable(qp.VarName(qv)));
    return *qvar_term[qv];
  };

  // Pass 1: constants reached by query variables pin them.
  for (const SubgoalMapping* e : pick) {
    for (int qv = 0; qv < qp.num_vars(); ++qv) {
      if (!e->phi.IsBound(qv) || qvar_term[qv].has_value()) continue;
      const Term& img = e->phi.Get(qv);
      if (img.is_const()) qvar_term[qv] = img;
    }
  }
  // Pass 2: emit one view atom per subgoal.
  for (const SubgoalMapping* e : pick) {
    const Query& view = views[e->view_index];
    Atom atom;
    atom.predicate = view.head().predicate;
    for (const Term& ht : view.head().args) {
      if (ht.is_const()) {
        atom.args.push_back(ht);
        continue;
      }
      auto cb = e->const_bindings.find(ht.var());
      if (cb != e->const_bindings.end()) {
        atom.args.push_back(Term::Const(cb->second));
        continue;
      }
      // Does some query variable map onto this head variable?
      int qv_here = -1;
      for (int qv = 0; qv < qp.num_vars() && qv_here < 0; ++qv)
        if (e->phi.IsBound(qv) && e->phi.Get(qv) == Term::Var(ht.var()))
          qv_here = qv;
      if (qv_here >= 0) {
        atom.args.push_back(term_for(qv_here));
      } else {
        atom.args.push_back(Term::Var(cand.AddFreshVariable(
            StrCat(view.head().predicate, "_", view.VarName(ht.var())))));
      }
    }
    cand.AddBodyAtom(std::move(atom));
  }
  // Head.
  for (const Term& t : qp.head().args) {
    if (t.is_const()) {
      cand.head().args.push_back(t);
      continue;
    }
    // A head variable that never reached an exposed position cannot be
    // returned: no candidate.
    bool bound = false;
    for (const SubgoalMapping* e : pick)
      if (e->phi.IsBound(t.var())) bound = true;
    if (!bound) return std::nullopt;
    cand.head().args.push_back(term_for(t.var()));
  }
  // Comparisons: map each query comparison onto candidate terms when the
  // variable is exposed; an unexposed compared variable kills the candidate
  // only under ac_aware (otherwise comparisons are ignored and verification
  // rejects the unsound candidate).
  if (ac_aware) {
    for (const Comparison& c : qp.comparisons()) {
      auto translate = [&](const Term& t) -> std::optional<Term> {
        if (t.is_const()) return t;
        if (qvar_term[t.var()].has_value()) return *qvar_term[t.var()];
        return std::nullopt;
      };
      std::optional<Term> lhs = translate(c.lhs);
      std::optional<Term> rhs = translate(c.rhs);
      if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
      cand.AddComparison(Comparison(*lhs, c.op, *rhs));
    }
    if (!AcsConsistent(cand.comparisons())) return std::nullopt;
  }
  return cand;
}

// The candidate plus, following the bucket algorithm's final step, the
// variants obtained by equating atoms of the same view (this is how the
// bucket algorithm recovers rewritings where one view covers several query
// subgoals).
std::vector<Query> Variants(Query cand) {
  std::vector<Query> variants{std::move(cand)};
  std::set<std::string> seen_variant{variants[0].ToString()};
  for (size_t vi = 0; vi < variants.size() && variants.size() < 64; ++vi) {
    for (size_t i = 0; i < variants[vi].body().size(); ++i) {
      for (size_t j = i + 1; j < variants[vi].body().size(); ++j) {
        Query merged;
        if (!UnifyBodyAtoms(variants[vi], i, j, &merged)) continue;
        if (seen_variant.insert(merged.ToString()).second)
          variants.push_back(std::move(merged));
      }
    }
  }
  return variants;
}

}  // namespace

Result<UnionQuery> BucketRewrite(EngineContext& ctx, const Query& q,
                                 const ViewSet& views,
                                 const BucketOptions& options,
                                 RewritingWitness* witness) {
  CQAC_ASSIGN_OR_RETURN(std::optional<Query> prepared,
                        PrepareQuery(q, witness));
  if (!prepared.has_value()) return UnionQuery{};
  const Query& qp = *prepared;
  CQAC_ASSIGN_OR_RETURN(ViewSet prepped, PrepareViews(views, witness));

  std::vector<std::vector<SubgoalMapping>> buckets;
  if (!MapSubgoals(qp, prepped, &buckets)) return UnionQuery{};

  UnionCollector collector(witness);
  CQAC_RETURN_IF_ERROR(VerifyProduct(
      ctx, buckets, "bucket candidate enumeration exceeded the mapping budget",
      "bucket candidate enumeration",
      [&](const std::vector<const SubgoalMapping*>& pick) {
        CandidateOutcome out;
        std::optional<Query> cand =
            BuildCandidate(qp, prepped, pick, options.ac_aware);
        if (!cand.has_value()) return out;
        for (const Query& variant : Variants(std::move(*cand))) {
          ContainmentWitness evidence;
          Result<bool> accepted =
              VerifyCandidate(ctx, variant, qp, prepped,
                              witness != nullptr ? &evidence : nullptr);
          if (!accepted.ok()) {
            out.error = accepted.status();
            return out;
          }
          if (!accepted.value()) continue;
          out.accepted.push_back(CompactVariables(variant));
          out.witnesses.push_back(std::move(evidence));
        }
        return out;
      },
      &collector));
  return collector.Take();
}

}  // namespace cqac
