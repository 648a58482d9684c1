// Human-readable containment proofs.
//
// IsContained answers yes/no; ExplainContainment reconstructs WHY, in the
// vocabulary of the paper: the containment mappings used (Theorem 2.1), for
// each satisfied disjunct which comparisons were directly implied, and —
// when no single mapping suffices — the case split the disjunction
// implication performs. Intended for tooling (cqac_shell) and debugging
// rewritings, not for hot paths.
#ifndef CQAC_CONTAINMENT_EXPLAIN_H_
#define CQAC_CONTAINMENT_EXPLAIN_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/substitution.h"

namespace cqac {

/// One containment mapping with its image comparisons.
struct MappingEvidence {
  std::string mapping;                  // rendered mu: {X -> A, ...}
  std::vector<std::string> image_acs;   // rendered mu(beta1)
  bool directly_implied = false;        // beta2 => mu(beta1) alone
};

/// The outcome of an explanation.
struct ContainmentExplanation {
  bool contained = false;
  /// Mappings found from the containing into the contained query.
  std::vector<MappingEvidence> mappings;
  /// Free-text narrative of the decisive step.
  std::string narrative;

  std::string ToString() const;
};

/// Explains whether (and why) q2 is contained in q1. Uses the same decision
/// procedures as IsContained, under the caller's context (its budget bounds
/// the mapping enumeration; its stats count the work); the answer always
/// matches IsContained.
Result<ContainmentExplanation> ExplainContainment(EngineContext& ctx,
                                                  const Query& q2,
                                                  const Query& q1);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_EXPLAIN_H_
