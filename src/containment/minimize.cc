#include "src/containment/minimize.h"

#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/ir/substitution.h"

namespace cqac {
namespace {

/// `q` without body atom `drop` (comparisons and head unchanged).
Query WithoutAtom(const Query& q, size_t drop) {
  Query out;
  out.head() = q.head();
  for (const std::string& name : q.var_names()) out.FindOrAddVariable(name);
  for (size_t i = 0; i < q.body().size(); ++i)
    if (i != drop) out.AddBodyAtom(q.body()[i]);
  out.comparisons() = q.comparisons();
  return out;
}

}  // namespace

Result<Query> MinimizeQuery(EngineContext& ctx, const Query& q,
                            MinimizationWitness* witness) {
  CQAC_ASSIGN_OR_RETURN(Query cur, Preprocess(q));
  Query prepped = cur;
  CQAC_RETURN_IF_ERROR(cur.Validate());

  bool changed = true;
  while (changed && cur.body().size() > 1) {
    changed = false;
    // Strategy 1: drop an atom outright (covers atoms whose variables are
    // not load-bearing).
    for (size_t i = 0; i < cur.body().size() && !changed; ++i) {
      Query smaller = WithoutAtom(cur, i);
      // Dropping an atom can strand head or comparison variables; those
      // candidates are invalid, not smaller cores.
      if (!smaller.Validate().ok()) continue;
      // Dropping atoms only relaxes, so cur is always contained in smaller;
      // equivalence needs the other direction.
      CQAC_ASSIGN_OR_RETURN(bool still_equal, IsContained(ctx, smaller, cur));
      if (still_equal) {
        cur = CompactVariables(smaller);
        changed = true;
      }
    }
    // Strategy 2: fold one atom onto another of the same predicate (the
    // Chandra-Merlin endomorphism step — needed when the folded atom's
    // variables also occur in comparisons, so plain dropping would strand
    // them).
    for (size_t i = 0; i < cur.body().size() && !changed; ++i) {
      for (size_t j = 0; j < cur.body().size() && !changed; ++j) {
        if (i == j) continue;
        Query folded;
        if (!UnifyBodyAtoms(cur, i, j, &folded)) continue;
        if (!folded.Validate().ok()) continue;
        // Folding restricts (cur contains folded); equivalence needs cur
        // contained in folded.
        CQAC_ASSIGN_OR_RETURN(bool still_equal, IsContained(ctx, cur, folded));
        if (still_equal) {
          CQAC_ASSIGN_OR_RETURN(bool sound, IsContained(ctx, folded, cur));
          if (sound) {
            cur = CompactVariables(folded);
            changed = true;
          }
        }
      }
    }
  }
  Query out = RemoveRedundantComparisons(cur);
  if (witness != nullptr) {
    witness->original = prepped;
    witness->minimized = out;
    // Recompute both directions with witness capture (the witness parameter
    // bypasses the decision cache, so the mappings are genuinely fresh).
    CQAC_ASSIGN_OR_RETURN(
        bool fwd, IsContained(ctx, prepped, out, {}, &witness->forward));
    CQAC_ASSIGN_OR_RETURN(
        bool bwd, IsContained(ctx, out, prepped, {}, &witness->backward));
    if (!fwd || !bwd)
      return Status::Internal(
          "minimization result is not equivalent to its input");
  }
  return out;
}

}  // namespace cqac
