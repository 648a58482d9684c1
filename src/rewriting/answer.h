// One-call certain-answer computation, and the read ops the shell, the
// server and the auditor share.
//
// Bundles the full pipeline: classify the query, pick the right rewriting
// engine (RewriteLSIQuery for CQ/LSI/RSI, the recursive Datalog construction
// for CQAC-SI with SI views, the verified bucket algorithm otherwise),
// evaluate the rewriting over a view instance, and return the certain
// answers. RunRewriteAlgorithm is the one caller of the three rewriters
// outside their own files.
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
#include "src/rewriting/witness.h"

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
/// CertainAnswers, the shell's `rewrite`/`verify`, AuditAll, the ER search).
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

  /// Answer's union-eval decision over `view_instance` (ChooseUnionEval).
  plan::UnionEvalChoice PriceUnionEval(EngineContext& ctx,
                                       const Database& view_instance,
                                       plan::UnionEvalPin pin) const;

  std::string ToString() const;
};

/// Runs `algorithm` (RewriteSiQueryDatalog, RewriteLsiQuery or
/// BucketRewrite) for `q` over `views`; the plan record stays empty. A
/// finite-union rewriter fills `witness` when it is non-null.
Result<ViewPlan> RunRewriteAlgorithm(EngineContext& ctx,
                                     RewriteAlgorithm algorithm,
                                     const Query& q, const ViewSet& views,
                                     RewritingWitness* witness = nullptr);

/// Compiles the best available plan for `q` over `views`: runs the chosen
/// algorithm and records it as a forced `algorithm` Decision. Planning many
/// queries against one context shares its containment memo across them.
Result<ViewPlan> PlanForQuery(EngineContext& ctx, const Query& q,
                              const ViewSet& views);

/// `answers`: the finite-union rewriting of `q` evaluated over
/// `view_instance`, the views' extents. Unsupported for a Datalog MCR,
/// NotFound when no rewriting exists; `rewriting_count` gets its size.
Result<Relation> CertainAnswers(EngineContext& ctx, const Query& q,
                                const ViewSet& views,
                                const Database& view_instance,
                                size_t* rewriting_count = nullptr);

/// `contain`: is `candidate` contained in `q`? A candidate over views only
/// is compared through its expansion (Definition 2.1), and `via_expansion`
/// says so.
Result<bool> IsContainedThroughExpansion(EngineContext& ctx,
                                         const Query& candidate,
                                         const Query& q, const ViewSet& views,
                                         bool* via_expansion = nullptr);

/// Convenience: compile + evaluate in one call.
Result<Relation> AnswerUsingViews(EngineContext& ctx, const Query& q,
                                  const ViewSet& views,
                                  const Database& view_instance);

}  // namespace cqac

#endif  // CQAC_REWRITING_ANSWER_H_
