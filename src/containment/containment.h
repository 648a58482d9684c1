// Containment and equivalence of CQAC queries.
//
// Three procedures:
//  * IsContained          — the production test: Theorem 2.3's single-mapping
//    fast path when the containing query is CQ/LSI/RSI, otherwise the general
//    Theorem 2.1 test (all containment mappings + disjunction implication);
//  * IsContainedByCanonicalDatabases — an independent, first-principles
//    decision procedure enumerating canonical databases (one per total
//    preorder of the contained query's variables). Used to cross-validate
//    the production test and to decide union containment;
//  * IsContainedInUnion   — containment in a finite union of CQACs (needed
//    for MCR verification, Sections 3-4).
//
// All procedures preprocess their inputs first (Section 2), so callers may
// pass queries whose comparisons imply equalities.
//
// Every production procedure takes the caller's EngineContext: decisions are
// memoized in the context's cache (keyed on interned canonical forms, so
// queries equal up to renaming share entries), enumeration is charged to the
// context's Budget, and counters land in its EngineStats. Only the reference
// procedure IsContainedByCanonicalDatabases runs without one, so that tests
// can check the engine against it.
#ifndef CQAC_CONTAINMENT_CONTAINMENT_H_
#define CQAC_CONTAINMENT_CONTAINMENT_H_

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"

namespace cqac {

struct ContainmentOptions {
  /// Use the Theorem 2.3 single-mapping test when the containing query is
  /// CQ-only, LSI, or RSI. Disable to force the general Theorem 2.1 path
  /// (for benchmarking the difference).
  bool use_single_mapping_fast_path = true;
};

/// A machine-checkable justification for one positive containment decision
/// `contained ⊆ container`: the preprocessed pair plus the containment
/// mappings whose comparison images the contained query's comparisons imply
/// disjunctively (Theorem 2.1; a single mapping under Theorem 2.3). The
/// certificate checker (src/analysis/certificate.h) re-validates it with the
/// slow reference procedures, independent of the production decision path.
struct ContainmentWitness {
  Query contained;   // the preprocessed contained query (q2)
  Query container;   // the preprocessed containing query (q1)
  /// The contained query's comparisons are unsatisfiable: it denotes the
  /// empty relation and is vacuously contained (no mappings recorded).
  bool contained_inconsistent = false;
  /// Exactly one mapping suffices (Theorem 2.3 fast path or a mapping whose
  /// comparison image is empty after simplification).
  bool single_mapping = false;
  /// Each mapping sends container variable ids (vector index) to terms over
  /// `contained`. Every mapping is total.
  std::vector<std::vector<Term>> mappings;
};

/// True iff `q2` is contained in `q1` (every database's q2-answers are
/// q1-answers). Head arities must match. ResourceExhausted when the
/// context's budget (mapping cap or deadline) cuts the decision short.
///
/// When `witness` is non-null and the result is `true`, the witness is
/// filled with a checkable justification; the decision cache is bypassed so
/// the mappings are actually recomputed.
Result<bool> IsContained(EngineContext& ctx, const Query& q2, const Query& q1,
                         const ContainmentOptions& options = {},
                         ContainmentWitness* witness = nullptr);

/// True iff `q1` and `q2` are equivalent.
Result<bool> IsEquivalent(EngineContext& ctx, const Query& q1, const Query& q2,
                          const ContainmentOptions& options = {});

/// Independent decision procedure: enumerates every total preorder of q2's
/// variables consistent with beta2, builds the canonical database, and
/// evaluates q1 on it. Exponential; intended for validation and small inputs.
Result<bool> IsContainedByCanonicalDatabases(const Query& q2, const Query& q1);

/// True iff `q` is contained in the union `u` (canonical-database method:
/// every consistent preorder's canonical database must satisfy some
/// disjunct).
Result<bool> IsContainedInUnion(EngineContext& ctx, const Query& q,
                                const UnionQuery& u);

/// True iff every disjunct of `u` is contained in `q1`.
Result<bool> UnionIsContained(EngineContext& ctx, const UnionQuery& u,
                              const Query& q1,
                              const ContainmentOptions& options = {});

/// A machine-checkable record of one MinimizeUnion run. Although the greedy
/// loop drops each disjunct against the disjuncts still standing *at that
/// moment*, coverage is transitive through later drops, so every dropped
/// disjunct is contained in the union of the FINAL kept set — which is what
/// the auditor re-decides from scratch (src/analysis/audit).
struct UnionMinimizationWitness {
  UnionQuery original;
  UnionQuery minimized;
  std::vector<size_t> kept;     // indices into original.disjuncts, ascending
  std::vector<size_t> dropped;  // indices into original.disjuncts, ascending
};

/// Removes disjuncts contained in the union of the remaining ones (greedy,
/// deterministic). The resulting union is equivalent to `u`. Note that with
/// comparisons a disjunct can be redundant without being contained in any
/// single other disjunct, so the per-disjunct test uses IsContainedInUnion.
/// When `witness` is non-null it is filled with the kept/dropped partition.
Result<UnionQuery> MinimizeUnion(EngineContext& ctx, const UnionQuery& u,
                                 UnionMinimizationWitness* witness = nullptr);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_CONTAINMENT_H_
