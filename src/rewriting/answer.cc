#include "src/rewriting/answer.h"

#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

/// The class-dictated algorithm choice, recorded so surfaced plans show why
/// an engine was picked even though soundness (not cost) forced it. The
/// estimate slots carry the plan's size (disjuncts / rules) for scale.
plan::Decision AlgorithmDecision(const std::string& algo, AcClass cls,
                                 size_t plan_size) {
  plan::Decision d;
  d.kind = "algorithm";
  d.choice = algo;
  d.est_chosen = static_cast<double>(plan_size);
  d.forced = true;
  d.detail = StrCat("class ", AcClassName(cls), ", class-dictated");
  return d;
}

}  // namespace

Result<Relation> ViewPlan::Answer(EngineContext& ctx,
                                  const Database& view_instance,
                                  const AnswerOptions& options,
                                  plan::Plan* plan_out) const {
  switch (kind) {
    case PlanKind::kEmpty:
      return Relation{};
    case PlanKind::kDatalog:
      return datalog->MakeEngine().Query(view_instance);
    case PlanKind::kFiniteUnion:
      break;
  }

  // Price the union over this view instance, then let the planner choose
  // between evaluating it directly and pruning contained disjuncts first.
  auto rows = [&view_instance](const std::string& p) {
    return view_instance.Get(p).size();
  };
  auto distinct = [&view_instance](const std::string& p, size_t c) {
    return view_instance.stats().DistinctEstimate(p, c);
  };
  const plan::Cardinalities cards{rows, distinct};
  double est_eval = 0;
  for (const Query& d : union_plan.disjuncts)
    est_eval += plan::EstimateEvalCost(d, cards);
  const plan::UnionEvalChoice choice = plan::ChooseUnionEval(
      ctx, union_plan.disjuncts.size(), est_eval, options.union_eval);
  if (plan_out) plan_out->decisions.push_back(choice.ToDecision());
  if (!choice.prune) return EvaluateUnion(ctx, union_plan, view_instance);

  // Greedy containment prune: drop a disjunct contained in an already-kept
  // one. eval(contained) is a subset of eval(container) on every database,
  // so the union over the survivors is exactly the full union. The loop is
  // serial and scans in disjunct order, so the surviving set — and
  // therefore the adaptive feedback — is deterministic; a containment
  // error (budget) conservatively keeps the disjunct.
  UnionQuery pruned;
  for (const Query& d : union_plan.disjuncts) {
    bool redundant = false;
    for (const Query& kept : pruned.disjuncts) {
      Result<bool> contained = IsContained(ctx, d, kept);
      if (contained.ok() && contained.value()) {
        redundant = true;
        break;
      }
    }
    if (!redundant) pruned.disjuncts.push_back(d);
  }
  plan::ObserveUnionPrune(
      ctx, union_plan.disjuncts.size(),
      union_plan.disjuncts.size() - pruned.disjuncts.size());
  return EvaluateUnion(ctx, pruned, view_instance);
}

std::string ViewPlan::ToString() const {
  switch (kind) {
    case PlanKind::kEmpty:
      return "<empty plan>";
    case PlanKind::kFiniteUnion:
      return union_plan.ToString();
    case PlanKind::kDatalog:
      return datalog->ToString();
  }
  return "?";
}

const char* RewriteAlgorithmName(RewriteAlgorithm a) {
  switch (a) {
    case RewriteAlgorithm::kLsiMcr:
      return "lsi-mcr";
    case RewriteAlgorithm::kSiDatalog:
      return "si-datalog";
    case RewriteAlgorithm::kBucket:
      return "bucket";
  }
  return "?";
}

RewriteAlgorithm ChooseRewriteAlgorithm(const Query& q, const ViewSet& views) {
  const AcClass cls = q.Classify();
  if (cls == AcClass::kNone || cls == AcClass::kLsi || cls == AcClass::kRsi)
    return RewriteAlgorithm::kLsiMcr;
  if (q.IsCqacSi() && views.AllSiOnly()) return RewriteAlgorithm::kSiDatalog;
  // General fallback: verified bucket candidates (sound, possibly
  // incomplete — documented in DESIGN.md).
  return RewriteAlgorithm::kBucket;
}

Result<ViewPlan> PlanForQuery(EngineContext& ctx, const Query& q,
                              const ViewSet& views) {
  ViewPlan plan;
  ++ctx.stats().plan_decisions;
  plan.algorithm = ChooseRewriteAlgorithm(q, views);
  size_t plan_size = 0;
  if (plan.algorithm == RewriteAlgorithm::kSiDatalog) {
    CQAC_ASSIGN_OR_RETURN(SiMcr mcr, RewriteSiQueryDatalog(ctx, q, views));
    plan.kind = PlanKind::kDatalog;
    plan.datalog = std::move(mcr);
    plan_size = plan.datalog->rules.size();
  } else {
    CQAC_ASSIGN_OR_RETURN(UnionQuery u,
                          plan.algorithm == RewriteAlgorithm::kLsiMcr
                              ? RewriteLsiQuery(ctx, q, views)
                              : BucketRewrite(ctx, q, views));
    if (!u.empty()) {
      plan.kind = PlanKind::kFiniteUnion;
      plan.union_plan = std::move(u);
    }
    plan_size = plan.union_plan.disjuncts.size();
  }
  plan.plan.decisions.push_back(AlgorithmDecision(
      RewriteAlgorithmName(plan.algorithm), q.Classify(), plan_size));
  return plan;
}

Result<Relation> AnswerUsingViews(EngineContext& ctx, const Query& q,
                                  const ViewSet& views,
                                  const Database& view_instance) {
  CQAC_ASSIGN_OR_RETURN(ViewPlan plan, PlanForQuery(ctx, q, views));
  return plan.Answer(ctx, view_instance);
}

}  // namespace cqac
