// The planner: one place for every cost decision the engine makes.
//
// Callers that used to choose ad hoc — the rewriting dispatcher
// (src/rewriting/answer.cc), the batch join evaluator's atom order
// (src/eval/evaluate.cc), the IVM incremental-vs-rebuild heuristics
// (src/ivm/maintain.cc) — now ask the planner, which consumes cardinality
// statistics (src/plan/stats.h) and keeps no state of its own: every choice
// is a pure function of its inputs. The algorithm and join-order choices
// are recorded as explicit Decisions. Decisions are *advisory about cost only*:
// each offered choice is result-invariant, so forcing any arm yields
// byte-identical answers (tests/plan_equivalence_test.cc proves it at
// several thread counts).
//
// Layering: this library depends only on ir/base/engine. Relation sizes
// arrive through FunctionRef callbacks, so plan never links eval and every
// layer above can link plan.
#ifndef CQAC_PLAN_PLANNER_H_
#define CQAC_PLAN_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/function_ref.h"
#include "src/engine/context.h"
#include "src/ir/query.h"

namespace cqac {
namespace plan {

/// One recorded cost comparison. `forced` marks decisions dictated by
/// soundness (the AC-class lattice), a force_* pin, or a structural guard
/// rather than by the estimates.
struct Decision {
  std::string kind;    // "algorithm" | "join-order"
  std::string choice;
  double est_chosen = 0;
  double est_alternative = 0;
  bool forced = false;
  std::string detail;  // free-form: class name, order

  std::string ToString() const;
  std::string ToJson() const;
};

/// The explicit plan value: every decision made for one unit of work, in
/// the order they were taken.
struct Plan {
  std::vector<Decision> decisions;

  std::string ToString() const;  // one indented line per decision
  std::string ToJson() const;    // {"decisions":[...]}
};

/// Cardinality callbacks the cost model reads. Both are borrowed for the
/// duration of one planner call (FunctionRef semantics): `rows` returns the
/// live relation size, `distinct` a per-column distinct estimate (0 =
/// unknown, which the model treats as "no selectivity credit").
struct Cardinalities {
  FunctionRef<size_t(const std::string&)> rows;
  FunctionRef<size_t(const std::string&, size_t)> distinct;
};

// ---- Join atom order ------------------------------------------------------

/// A planned execution order for a query body. Joins over set-semantics
/// relations are order-independent, so any order is result-invariant; the
/// planner picks one greedily (smallest estimated intermediate growth
/// first, constants credited by the distinct sketches) and keeps the
/// syntactic order whenever the model does not strictly prefer another.
struct JoinOrderPlan {
  std::vector<size_t> order;  // body-atom indexes in execution order
  double est_planned = 0;     // summed intermediate sizes under `order`
  double est_syntactic = 0;   // same model over the syntactic order
  bool reordered = false;     // order differs from the identity

  std::string ToString() const;  // "[2, 0, 1] est 12 (syntactic 40)"
  Decision ToDecision() const;
};

JoinOrderPlan PlanJoinOrder(const Query& q, const Cardinalities& cards);

// ---- IVM incremental-vs-rebuild -------------------------------------------

/// Work models for the counting maintainer, whose joins probe persistent
/// base indexes: an incremental phase costs about one O(1) probe per delta
/// tuple per body position, so it is linear in the delta; a rebuild's lazy
/// per-join indexes make the full join roughly linear in its input
/// relations. Both ignore output size, which the two paths share.
/// (Formerly IndexedDeltaEstimate / IndexedRebuildEstimate.)
double CountingDeltaEstimate(const Query& q,
                             FunctionRef<size_t(const std::string&)> delta_size);
double CountingRebuildEstimate(const Query& q,
                               FunctionRef<size_t(const std::string&)> rel_size);

/// Which path an IVM apply takes. Value-initialized it is kPlanned, where
/// ChooseIvmPath decides; kIncremental and kRebuild pin a path whatever the
/// estimates say (tests and benchmarks).
enum class IvmPath { kPlanned, kIncremental, kRebuild };

/// A delta side touching k positions of one view body expands into 2^k - 1
/// subset joins, so past this many positions the maintainer rebuilds
/// whatever the estimates say.
constexpr size_t kMaxSubsetPositions = 10;

/// The incremental-vs-rebuild decision.
struct IvmPathChoice {
  bool rebuild = false;
  bool forced = false;  // a pin or the subset cap, not the estimates
};

/// Chooses the maintenance path: a pin wins, then the subset-expansion cap
/// (`max_touched` > kMaxSubsetPositions: the expansion alone outweighs a
/// rebuild), then the cost comparison: the rebuild wins iff
/// est_incremental > est_rebuild. A pure function of its arguments; bumps
/// plan_decisions.
IvmPathChoice ChooseIvmPath(EngineContext& ctx, double est_incremental,
                            double est_rebuild, size_t max_touched,
                            IvmPath pin);

}  // namespace plan
}  // namespace cqac

#endif  // CQAC_PLAN_PLANNER_H_
