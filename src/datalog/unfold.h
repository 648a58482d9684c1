// Partial unfolding of Datalog programs into finite unions of conjunctive
// queries, and containment of a CQ in a Datalog program.
//
// Unfolding is how we compare a recursive MCR (Section 5) against finite
// unions of CQACs: each bounded unfolding is a contained rewriting the
// program subsumes (the P_k chains of Example 1.2 are exactly the depth-k
// unfoldings of the recursive MCR there).
//
// CQ-in-Datalog containment uses the classic frozen-canonical-database test
// (contained iff the program derives the frozen head from the frozen body),
// which Section 5.2 relies on via the Q^datalog reduction.
#ifndef CQAC_DATALOG_UNFOLD_H_
#define CQAC_DATALOG_UNFOLD_H_

#include "src/base/status.h"
#include "src/ir/program.h"
#include "src/ir/query.h"

namespace cqac {
namespace datalog {

/// Options for UnfoldProgram.
struct UnfoldOptions {
  /// Maximum number of rule applications along one expansion.
  int max_depth = 6;
  /// Cap on emitted disjuncts; an unfolding with more fails with
  /// ResourceExhausted rather than return a truncated union.
  size_t max_disjuncts = 100000;
};

/// Enumerates the expansions of `p`'s query predicate with at most
/// `max_depth` rule applications, returning those that are IDB-free as a
/// union of conjunctive queries (comparisons are carried along). Rules must
/// be Skolem-free.
Result<UnionQuery> UnfoldProgram(const Program& p,
                                 const UnfoldOptions& options = {});

/// True iff the comparison-free CQ `cq` is contained in the comparison-free
/// Datalog program `p` (EXPTIME in general; the paper's Section 5 reduction
/// produces the small instances we need). Head arities must match.
Result<bool> IsCqContainedInDatalog(const Query& cq, const Program& p);

}  // namespace datalog
}  // namespace cqac

#endif  // CQAC_DATALOG_UNFOLD_H_
