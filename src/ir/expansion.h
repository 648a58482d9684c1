// View expansion (Definition 2.1 of the paper).
//
// The expansion P^exp of a rewriting P over views V replaces every view
// subgoal by the view's body, with nondistinguished view variables renamed to
// fresh variables. Repeated head variables and head constants generate
// explicit `=` comparisons, which the constraints module later collapses.
#ifndef CQAC_IR_EXPANSION_H_
#define CQAC_IR_EXPANSION_H_

#include "src/base/status.h"
#include "src/ir/query.h"
#include "src/ir/view.h"

namespace cqac {

/// Computes P^exp for rewriting `p` over `views`.
///
/// The result keeps `p`'s head and variables; view bodies are inlined with
/// fresh variables for nondistinguished view variables. Comparisons of `p`
/// and of the inlined views are concatenated. Returns InvalidArgument for
/// a body atom that is not a view (rewritings in the paper's sense use only
/// view atoms) or an arity mismatch.
Result<Query> ExpandRewriting(const Query& p, const ViewSet& views);

}  // namespace cqac

#endif  // CQAC_IR_EXPANSION_H_
