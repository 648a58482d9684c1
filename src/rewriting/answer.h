// One-call certain-answer computation.
//
// Bundles the full pipeline: classify the query, pick the right rewriting
// engine (RewriteLSIQuery for CQ/LSI/RSI, the recursive Datalog construction
// for CQAC-SI with SI views, the verified bucket algorithm otherwise),
// evaluate the rewriting over a view instance, and return the certain
// answers. This is the API a mediator or optimizer embeds; the lower-level
// pieces remain available for callers that cache rewritings across queries.
#ifndef CQAC_REWRITING_ANSWER_H_
#define CQAC_REWRITING_ANSWER_H_

#include <optional>
#include <string>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/ir/query.h"
#include "src/ir/view.h"
#include "src/plan/planner.h"
#include "src/rewriting/si_mcr.h"

namespace cqac {

/// Which engine a plan came from.
enum class PlanKind {
  kEmpty,        // no rewriting exists (or the query is unsatisfiable)
  kFiniteUnion,  // union of CQACs (RewriteLSIQuery / bucket)
  kDatalog,      // recursive Datalog program (Section 5)
};

/// The rewriting algorithm a query's comparison class dictates over a view
/// set. Soundness, not cost, forces the choice.
enum class RewriteAlgorithm {
  kLsiMcr,     // RewriteLsiQuery (Figure 2): CQ, LSI and RSI queries
  kSiDatalog,  // RewriteSiQueryDatalog (Figure 4): CQAC-SI query, SI views
  kBucket,     // verified bucket candidates: everything else
};

/// "lsi-mcr", "si-datalog" or "bucket" (the plan record's choice text).
const char* RewriteAlgorithmName(RewriteAlgorithm a);

/// The one class-to-algorithm dispatch every front end uses (PlanForQuery,
/// serve `rewrite`/`answers`, the shell's `rewrite`/`verify`, AuditAll).
/// Pure: it bumps no counter.
RewriteAlgorithm ChooseRewriteAlgorithm(const Query& q, const ViewSet& views);

/// Options for ViewPlan::Answer.
struct AnswerOptions {
  plan::UnionEvalPin union_eval = plan::UnionEvalPin::kAuto;
};

/// A compiled view-based plan for one query.
struct ViewPlan {
  PlanKind kind = PlanKind::kEmpty;
  RewriteAlgorithm algorithm = RewriteAlgorithm::kLsiMcr;  // the engine used
  UnionQuery union_plan;          // set iff kind == kFiniteUnion
  std::optional<SiMcr> datalog;   // set iff kind == kDatalog

  /// The planner's record of how this plan was chosen (the algorithm
  /// decision from PlanForQuery; Answer appends its union-eval decision).
  plan::Plan plan;

  /// Evaluates the plan over a view instance, returning certain answers.
  /// For finite-union plans the planner chooses between direct evaluation
  /// and containment-pruning redundant disjuncts first — a disjunct
  /// contained in a kept one contributes only a subset of its tuples on
  /// every instance, so both arms return the identical relation and the
  /// choice is pure cost (estimates from the view instance's cardinality
  /// stats, the expected prunable fraction from ctx.adaptive()). The
  /// decision taken is appended to `plan_out` when non-null.
  Result<Relation> Answer(EngineContext& ctx, const Database& view_instance,
                          const AnswerOptions& options = {},
                          plan::Plan* plan_out = nullptr) const;

  std::string ToString() const;
};

/// Compiles the best available plan for `q` over `views`. The context
/// carries the budget and collects stats; planning many queries against one
/// context shares the containment/implication memo across them.
Result<ViewPlan> PlanForQuery(EngineContext& ctx, const Query& q,
                              const ViewSet& views);

/// Convenience: compile + evaluate in one call.
Result<Relation> AnswerUsingViews(EngineContext& ctx, const Query& q,
                                  const ViewSet& views,
                                  const Database& view_instance);

}  // namespace cqac

#endif  // CQAC_REWRITING_ANSWER_H_
