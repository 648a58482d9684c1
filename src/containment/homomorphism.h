// Containment-mapping (homomorphism) enumeration between the ordinary
// subgoals of two queries [Chandra-Merlin 1977].
//
// A containment mapping from Q1 to Q2 sends each variable of Q1 to a term of
// Q2 such that (a) the head of Q1 maps onto the head of Q2 and (b) every
// ordinary subgoal of Q1 maps onto some ordinary subgoal of Q2. Comparisons
// are NOT considered here; the containment module layers Theorem 2.1 / 2.3
// implication checks on top.
//
// Enumeration is budgeted through EngineContext: the context's
// Budget::max_homomorphisms caps the mappings visited and its deadline is
// checked periodically. Exhausting either is reported explicitly
// (EnumerationOutcome::kBudgetExhausted), never as silent truncation.
#ifndef CQAC_CONTAINMENT_HOMOMORPHISM_H_
#define CQAC_CONTAINMENT_HOMOMORPHISM_H_

#include <vector>

#include "src/base/function_ref.h"
#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/substitution.h"

namespace cqac {

/// How a bounded enumeration ended.
enum class EnumerationOutcome {
  kCompleted,        // every mapping was visited
  kAborted,          // the callback returned false
  kBudgetExhausted,  // hit Budget::max_homomorphisms or the deadline
};

/// Invokes `cb` for every containment mapping from `from` into `to`,
/// charging the context's budget. `cb` returns true to continue.
EnumerationOutcome ForEachHomomorphism(EngineContext& ctx, const Query& from,
                                       const Query& to,
                                       FunctionRef<bool(const VarMap&)> cb);

/// Collects all containment mappings; ResourceExhausted if the context's
/// budget cut the enumeration short.
Result<std::vector<VarMap>> FindHomomorphisms(EngineContext& ctx,
                                              const Query& from,
                                              const Query& to);

/// True iff at least one containment mapping exists — the Chandra-Merlin
/// containment test for pure CQs (`to` contained in `from`).
/// ResourceExhausted if the budget ran out before any mapping was found.
Result<bool> HomomorphismExists(EngineContext& ctx, const Query& from,
                                const Query& to);

}  // namespace cqac

#endif  // CQAC_CONTAINMENT_HOMOMORPHISM_H_
