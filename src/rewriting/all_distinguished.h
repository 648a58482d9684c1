// Theorem 3.2: MCRs when all view variables are distinguished.
//
// With fully-distinguished views every comparison of the query can be
// enforced directly on view outputs, a single containment mapping certifies
// each contained rewriting, and the number of view subgoals needed is
// bounded by the number of query subgoals. This module implements that
// specialized (exponential-time, complete) construction and the associated
// decision procedure "does an MCR exist / is it nonempty".
#ifndef CQAC_REWRITING_ALL_DISTINGUISHED_H_
#define CQAC_REWRITING_ALL_DISTINGUISHED_H_

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/view.h"

namespace cqac {

/// Computes the MCR of the CQAC query `q` (any comparison class) using
/// views whose variables are all distinguished. Returns InvalidArgument if
/// some view hides a variable (use RewriteLsiQuery / RewriteSiQueryDatalog
/// then). The result is a finite union of CQACs; Theorem 3.2 guarantees
/// this language suffices in the all-distinguished case. The candidate
/// count (cartesian of per-subgoal choices) is charged to the context's
/// Budget::max_mappings.
Result<UnionQuery> RewriteAllDistinguished(EngineContext& ctx, const Query& q,
                                           const ViewSet& views);

}  // namespace cqac

#endif  // CQAC_REWRITING_ALL_DISTINGUISHED_H_
