// Equivalent-rewriting search (Section 3, Theorems 3.1/3.2, Corollary 3.1).
//
// Theorem 3.1 shows a doubly-exponential bound on the size of a minimal ER,
// making the problem decidable; a faithful exhaustive search is intractable,
// so this module searches the practically relevant space: candidates
// produced by the rewriting engines (RewriteLSIQuery when applicable, the
// bucket algorithm otherwise), verified by two-way containment. A returned
// ER is always correct; a `not found` answer is conclusive only within the
// searched candidate space (documented in DESIGN.md).
#ifndef CQAC_REWRITING_ER_SEARCH_H_
#define CQAC_REWRITING_ER_SEARCH_H_

#include <optional>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/view.h"
#include "src/rewriting/witness.h"

namespace cqac {

/// The result of an ER search.
struct ErResult {
  /// A single-CQAC equivalent rewriting, when one exists in the searched
  /// space.
  std::optional<Query> single;
  /// Otherwise, an equivalent finite union, when one exists.
  std::optional<UnionQuery> union_er;

  bool found() const { return single.has_value() || union_er.has_value(); }
};

/// Evidence for one ErResult: the forward direction (every candidate CR is a
/// contained rewriting) plus, for a single-CQAC ER, the back-containment
/// witness `query ⊆ expansion(single)`. The union case carries no back
/// witness — its back direction is a canonical-database decision the
/// certificate checker re-runs from scratch.
struct ErWitness {
  /// The query preprocessed to the empty (inconsistent) query; the ER is
  /// the empty union and no other evidence exists.
  bool query_inconsistent = false;
  /// Every candidate CR the search considered, with forward witnesses.
  UnionQuery crs;
  RewritingWitness forward;
  /// Index into `crs` of the disjunct returned as the single ER; -1 when
  /// the result is a union (or nothing was found).
  int single_index = -1;
  /// Back direction for the single case: query ⊆ Preprocess(expansion).
  ContainmentWitness back;
};

/// Searches for an equivalent rewriting of `q` using `views`: a single
/// contained rewriting whose expansion contains `q`, else the union of all of
/// them (Corollary 3.1, decided by the canonical-database union-containment
/// test). The context shares one decision cache across the CR generation and
/// the many two-way containment verifications. When `witness` is non-null the
/// evidence behind a found ER is recorded for certificate checking.
Result<ErResult> FindEquivalentRewriting(EngineContext& ctx, const Query& q,
                                         const ViewSet& views,
                                         ErWitness* witness = nullptr);

}  // namespace cqac

#endif  // CQAC_REWRITING_ER_SEARCH_H_
