// RewriteLSIQuery (Figure 2): maximally-contained rewritings for left- (or
// right-) semi-interval queries using views with general arithmetic
// comparisons — the paper's central algorithm (Section 4).
//
// Step 1 constructs MCDs with exportable variables (src/rewriting/mcd.h);
// Step 2 combines disjoint MCDs covering the query exactly, equates the view
// terms each query variable reaches, and satisfies the query's comparisons
// by the three cases of Section 4.4:
//   (1) the view's comparisons already imply the image comparison;
//   (2) the image variable is distinguished: add the comparison directly;
//   (3) the image variable reaches a distinguished variable through <=/<
//       paths: bound that variable instead (weakening `<` to `<=` when the
//       path is strict).
// Every emitted contained rewriting is verified (expansion contained in the
// query, Theorem 2.3) before inclusion; the union of survivors is the MCR
// (Theorems 4.1, 4.2).
#ifndef CQAC_REWRITING_REWRITE_LSI_H_
#define CQAC_REWRITING_REWRITE_LSI_H_

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/view.h"
#include "src/rewriting/mcd.h"
#include "src/rewriting/witness.h"

namespace cqac {

struct RewriteOptions {
  /// Verify each candidate rewriting (expansion contained in the query)
  /// before emitting. Cheap for LSI/RSI queries (single-mapping test); keep
  /// on in production. Off only for baseline experiments that demonstrate
  /// unsoundness of AC-blind rewriting.
  bool verify_rewritings = true;
};

/// Computes an MCR of the LSI/RSI query `q` using `views` (general CQACs)
/// as a finite union of CQACs. `q` must classify as CQ-only, LSI, or RSI;
/// other classes are Unsupported (Section 5's algorithm covers CQAC-SI).
///
/// The context's Budget::max_mappings caps MCD construction, each MCD
/// skeleton's product of export homomorphisms, the exact-cover search, and
/// each cover's product of ways to satisfy the query's comparisons; the
/// deadline caps the whole run and is polled per product element and per
/// candidate verified. Exhaustion returns a clean ResourceExhausted
/// and bumps budget_exhaustions. The MCD count goes to rewrite_mcds, every
/// candidate to rewrite_candidates and every reject to
/// rewrite_verified_rejects. Verification containment checks are memoized in
/// the context, so repeated candidates across combinations are verified once.
///
/// When `witness` is non-null, every emitted disjunct's verification
/// evidence is recorded (one ContainmentWitness per disjunct, parallel to
/// the returned union); candidates are then always verified, even with
/// `verify_rewritings` off, and the decision cache is bypassed for the
/// verification checks.
Result<UnionQuery> RewriteLsiQuery(EngineContext& ctx, const Query& q,
                                   const ViewSet& views,
                                   const RewriteOptions& options = {},
                                   RewritingWitness* witness = nullptr);

}  // namespace cqac

#endif  // CQAC_REWRITING_REWRITE_LSI_H_
