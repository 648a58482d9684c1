// CQAC minimization: removing redundant ordinary subgoals.
//
// The Chandra-Merlin minimization (fold the query onto a core) extended to
// comparisons: a subgoal can be dropped iff the smaller query is still
// equivalent, which we verify with the full CQAC containment test rather
// than a bare homomorphism (comparisons can make an otherwise-foldable atom
// load-bearing). Used to present small rewritings and as the preprocessing
// the Theorem 3.1 search relies on.
#ifndef CQAC_CONTAINMENT_MINIMIZE_H_
#define CQAC_CONTAINMENT_MINIMIZE_H_

#include "src/base/status.h"
#include "src/containment/containment.h"
#include "src/engine/context.h"
#include "src/ir/query.h"

namespace cqac {

/// A machine-checkable equivalence proof for one MinimizeQuery run: witness
/// homomorphisms in both directions between the preprocessed input and the
/// minimized output. The auditor (src/analysis/audit) re-validates both with
/// CheckContainmentWitness — independent of the greedy fold that produced
/// the minimization.
struct MinimizationWitness {
  Query original;   // the preprocessed input query
  Query minimized;  // the minimization result
  ContainmentWitness forward;   // original ⊆ minimized
  ContainmentWitness backward;  // minimized ⊆ original
};

/// Returns an equivalent query with a minimal set of ordinary subgoals
/// (greedy, deterministic: tries dropping subgoals in order, keeping the
/// query equivalent at every step) and with redundant comparisons removed.
/// The context memoizes the many pairwise containment checks the
/// greedy fold performs (they repeat across candidate drops).
/// When `witness` is non-null, both equivalence directions are recomputed
/// with witness capture after the fold converges.
Result<Query> MinimizeQuery(EngineContext& ctx, const Query& q,
                            MinimizationWitness* witness = nullptr);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_MINIMIZE_H_
