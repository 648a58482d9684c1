#include "src/rewriting/answer.h"

#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/ir/expansion.h"
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

Result<ViewPlan> RunRewriteAlgorithm(EngineContext& ctx,
                                     RewriteAlgorithm algorithm,
                                     const Query& q, const ViewSet& views,
                                     RewritingWitness* witness) {
  ViewPlan plan;
  plan.algorithm = algorithm;
  if (algorithm == RewriteAlgorithm::kSiDatalog) {
    CQAC_ASSIGN_OR_RETURN(plan.datalog, RewriteSiQueryDatalog(ctx, q, views));
    plan.kind = PlanKind::kDatalog;
    return plan;
  }
  CQAC_ASSIGN_OR_RETURN(
      plan.union_plan,
      algorithm == RewriteAlgorithm::kLsiMcr
          ? RewriteLsiQuery(ctx, q, views, {}, witness)
          : BucketRewrite(ctx, q, views, {}, witness));
  if (!plan.union_plan.empty()) plan.kind = PlanKind::kFiniteUnion;
  return plan;
}

Result<ViewPlan> PlanForQuery(EngineContext& ctx, const Query& q,
                              const ViewSet& views) {
  ++ctx.stats().plan_decisions;
  CQAC_ASSIGN_OR_RETURN(
      ViewPlan plan,
      RunRewriteAlgorithm(ctx, ChooseRewriteAlgorithm(q, views), q, views));
  const size_t plan_size = plan.kind == PlanKind::kDatalog
                               ? plan.datalog->rules.size()
                               : plan.union_plan.disjuncts.size();
  plan.plan.decisions.push_back(AlgorithmDecision(
      RewriteAlgorithmName(plan.algorithm), q.Classify(), plan_size));
  return plan;
}

Result<Relation> CertainAnswers(EngineContext& ctx, const Query& q,
                                const ViewSet& views,
                                const Database& view_instance,
                                size_t* rewriting_count) {
  const RewriteAlgorithm algorithm = ChooseRewriteAlgorithm(q, views);
  if (algorithm == RewriteAlgorithm::kSiDatalog)
    return Status::Unsupported(
        "certain answers for a recursive Datalog MCR are not served over the "
        "wire; use rewrite + a local datalog::Engine");
  CQAC_ASSIGN_OR_RETURN(ViewPlan plan,
                        RunRewriteAlgorithm(ctx, algorithm, q, views));
  if (plan.union_plan.empty())
    return Status::NotFound(
        "no contained rewriting exists for this query over the session's "
        "views");
  if (rewriting_count != nullptr)
    *rewriting_count = plan.union_plan.disjuncts.size();
  return EvaluateUnion(ctx, plan.union_plan, view_instance);
}

Result<bool> IsContainedThroughExpansion(EngineContext& ctx,
                                         const Query& candidate,
                                         const Query& q, const ViewSet& views,
                                         bool* via_expansion) {
  bool uses_views = !candidate.body().empty();
  for (const Atom& a : candidate.body())
    if (views.Find(a.predicate) == nullptr) uses_views = false;
  if (via_expansion != nullptr) *via_expansion = uses_views;
  if (!uses_views) return IsContained(ctx, candidate, q);
  CQAC_ASSIGN_OR_RETURN(Query expanded, ExpandRewriting(candidate, views));
  return IsContained(ctx, expanded, q);
}

}  // namespace cqac
