// Section 5.2-5.3: reducing CQAC-SI containment to the containment of a CQ
// in a Datalog program.
//
// Given a CQAC-SI query Q1 (at most one LSI comparison + any number of RSI
// ones, or the mirror image), the construction produces:
//  * P^CQ   — for any SI query P: its ordinary subgoals plus unary atoms
//    U_{theta c}(X) for every comparison form `theta c` of Q1 implied by
//    P's comparisons for X (Section 5.2);
//  * Q1^datalog — a program with a query rule, one mapping rule per
//    comparison of Q1, coupling rules for tautological comparison pairs, and
//    initialization rules I_{theta c}(A) :- U_{theta c}(A) (Section 5.3).
//
// Theorem 5.1: P contained in Q1  iff  P^CQ contained in Q1^datalog.
// Theorem 5.2: the resulting test is in NP for CQSI-in-CQSI containment.
#ifndef CQAC_CONTAINMENT_SI_REDUCTION_H_
#define CQAC_CONTAINMENT_SI_REDUCTION_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/program.h"
#include "src/ir/query.h"

namespace cqac {

/// One semi-interval comparison form `X theta c` with the variable abstracted
/// away: a bound direction, strictness, and the constant.
struct SiForm {
  bool lower;   // true: c theta X (lower bound); false: X theta c (upper)
  bool strict;  // true: <, false: <=
  Rational c;

  bool operator==(const SiForm& o) const {
    return lower == o.lower && strict == o.strict && c == o.c;
  }
  bool operator<(const SiForm& o) const {
    if (lower != o.lower) return lower < o.lower;
    if (strict != o.strict) return strict < o.strict;
    return c < o.c;
  }

  /// The comparison `X (this form)` for variable term `x`.
  Comparison ToComparison(const Term& x) const;

  /// Encodes the form as a predicate-name fragment, e.g. "gt_5", "le_7d2",
  /// "lt_m3" (d = '/', m = '-').
  std::string PredicateSuffix() const;

  /// Inverse of PredicateSuffix: decodes "ge_7d2" back into a form. Used by
  /// the certificate checker to re-derive what a `U_...` / `I_...` predicate
  /// claims. Fails on strings PredicateSuffix cannot produce.
  static Result<SiForm> FromPredicateSuffix(const std::string& suffix);
};

/// Extracts the SiForm of a semi-interval comparison (which must satisfy
/// Comparison::IsSemiInterval()).
SiForm SiFormOf(const Comparison& c);

/// True iff `X f1 OR X f2` is a tautology over a dense order (the
/// "coupling" condition of Lemma 5.1(b)).
bool FormsCouple(const SiForm& f1, const SiForm& f2);

/// Builds P^CQ of the query `p` with respect to the comparison forms of
/// `q1` (both are preprocessed internally). By default `p` must be SI-only
/// (the Theorem 5.1 setting); with `require_si_only = false`, general
/// comparisons are allowed in `p` — its U atoms then encode every q1-form
/// its (arbitrary) comparisons imply. The relaxed mode backs the Section 6
/// extension of the recursive-MCR construction to general-AC views: the
/// encoding stays sound (a U fact is emitted only when implied), though the
/// paper proves completeness only for the SI case.
Result<Query> BuildPcq(EngineContext& ctx, const Query& p, const Query& q1,
                       bool require_si_only = true);

/// Builds Q1^datalog for the CQAC-SI query `q1`.
Result<Program> BuildQdatalog(const Query& q1);

/// Theorem 5.1 containment test: is `q2` contained in `q1`, decided through
/// the reduction? Requires q1 CQAC-SI and q2 SI-only; Unsupported otherwise.
/// The context memoizes the per-variable implication checks of the
/// P^CQ construction in the shared decision cache.
Result<bool> IsContainedSiReduction(EngineContext& ctx, const Query& q2,
                                    const Query& q1);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_SI_REDUCTION_H_
