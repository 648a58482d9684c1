// MiniCon Descriptions (MCDs) extended with exportable variables — Step 1 of
// the RewriteLSIQuery algorithm (Figure 2, Sections 4.2-4.3).
//
// An MCD records how one view, under a head homomorphism, covers a subset of
// the query's ordinary subgoals. Compared to the MS algorithms [MiniCon,
// Shared-Variable-Bucket], a query variable may map to a *nondistinguished*
// view variable as long as that variable is exportable (Lemma 4.1); the MCD
// then carries the export's head homomorphism.
#ifndef CQAC_REWRITING_MCD_H_
#define CQAC_REWRITING_MCD_H_

#include <map>
#include <set>
#include <vector>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/substitution.h"
#include "src/ir/view.h"
#include "src/rewriting/export_analysis.h"

namespace cqac {

/// One MiniCon Description.
struct Mcd {
  int view_index = -1;
  /// Sorted indices of the query subgoals this MCD covers.
  std::vector<int> covered;
  /// Partial map: query variable -> view term, defined exactly for the
  /// variables of the covered subgoals.
  VarMap phi;
  /// The (least restrictive) head homomorphism realizing required merges and
  /// exports. Classes containing a distinguished view variable are "usable".
  HeadHomomorphism hh;
  /// View variables whose class must carry a constant in the rewriting
  /// (a query constant met a view variable position): class rep -> value.
  std::map<int, Value> const_bindings;

  Mcd(int nvars_query, int nvars_view)
      : phi(nvars_query), hh(nvars_view) {}

  std::string ToString(const Query& q, const Query& view) const;
};

/// Builds all MCDs of `q` over `views` (both must be preprocessed; the
/// analyses vector parallels the views). Each MCD is minimal in its covered
/// set and carries a least restrictive head homomorphism. The context's
/// Budget::max_mappings caps the MCD count and, per MCD skeleton, the product
/// of the export homomorphisms its classes can choose from; the deadline is
/// checked between seeds and per export combination in each pass over the
/// product (building, filtering, pruning, emitting). Exceeding either
/// returns ResourceExhausted and bumps budget_exhaustions. The MCDs built go
/// to rewrite_mcds.
Result<std::vector<Mcd>> ConstructMcds(
    EngineContext& ctx, const Query& q, const ViewSet& views,
    const std::vector<ExportAnalysis>& analyses);

}  // namespace cqac

#endif  // CQAC_REWRITING_MCD_H_
