// Bounded top-down unfolding of an SI-MCR Datalog program into a UCQAC
// over the view predicates.
//
// The Figure 4 program derives answers bottom-up from view extensions
// through inverse rules with Skolem terms. Its k-round behaviour is exactly
// captured by SLD-resolving the answer goal for at most k rule
// applications per branch: a branch that resolves every IDB atom away
// leaves a conjunctive goal over view predicates — one disjunct of the
// unfolded UCQAC. Skolem terms are handled the way the engine's ground
// semantics forces:
//
//   * equality against a Skolem application unifies (same function symbol,
//     argument-wise) or kills the branch (Skolem-vs-constant — a Skolem
//     symbol never equals a data constant);
//   * an ordered comparison with a Skolem side kills the branch
//     (EvaluateGroundComparison orders numbers only; symbols are false);
//   * a branch whose head or view atoms retain a Skolem application yields
//     nothing (view extensions are Skolem-free, and Skolem-carrying
//     answers are discarded by the certain-answer convention).
//
// The surviving disjuncts are what the whole-program auditor certifies
// against the query via from-scratch canonical-database containment
// (src/analysis/audit/audit.h): every answer the MCR can produce within
// the depth bound is provably a certain answer.
#ifndef CQAC_ANALYSIS_AUDIT_UNFOLD_MCR_H_
#define CQAC_ANALYSIS_AUDIT_UNFOLD_MCR_H_

#include <cstddef>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {
namespace audit {

struct UnfoldOptions {
  /// RECURSIVE rule applications allowed per branch (the "k bounded
  /// rounds"). Only rules whose body can reach their own head predicate —
  /// the I/J chain of the query program — consume this budget; the acyclic
  /// remainder (inverse, dom, U, initialization rules) strictly descends
  /// the predicate dependency DAG and is unfolded to exhaustion. One P_k
  /// chain round costs two recursive applications (a mapping rule plus a
  /// coupling rule), so the default certifies the direct disjunct plus the
  /// first chain round. Each further round roughly multiplies the cost of
  /// the per-disjunct canonical-database containment check (one more
  /// variable to order), so deeper audits are an explicit opt-in.
  size_t max_depth = 2;
  /// Consumed by the auditor's containment stage rather than the unfolder:
  /// the canonical-database check enumerates orderings over a disjunct
  /// expansion's variables and constants, so a disjunct with more distinct
  /// order values than this is skipped (Unsupported) instead of certified.
  size_t max_containment_values = 8;
};

struct UnfoldResult {
  /// The Skolem-free unfolded disjuncts over view predicates, deduplicated
  /// by canonical form, in discovery order.
  UnionQuery unfolding;
  /// Branches cut by max_depth while still holding IDB atoms (recursion
  /// beyond the certified bound).
  size_t truncated = 0;
  /// Completed branches discarded for residual Skolem terms or false
  /// ground comparisons (they derive nothing).
  size_t discarded = 0;
};

/// Unfolds `mcr` for bounded rounds. InvalidArgument when the program has
/// no rule for its own query predicate (and is non-empty). Every branch
/// taken off the work list, completed or expanded, is charged to the
/// context's Budget::max_mappings and polls its deadline (a safety net
/// against blow-up in the acyclic part): running past either returns
/// ResourceExhausted and bumps budget_exhaustions, which the auditor
/// surfaces as a skipped, not failed, obligation.
Result<UnfoldResult> UnfoldSiMcr(EngineContext& ctx, const SiMcr& mcr,
                                 const UnfoldOptions& options = {});

}  // namespace audit
}  // namespace cqac

#endif  // CQAC_ANALYSIS_AUDIT_UNFOLD_MCR_H_
