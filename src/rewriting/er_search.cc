#include "src/rewriting/er_search.h"

#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/engine/parallel.h"
#include "src/ir/expansion.h"
#include "src/rewriting/answer.h"

namespace cqac {

Result<ErResult> FindEquivalentRewriting(EngineContext& ctx, const Query& q,
                                         const ViewSet& views,
                                         ErWitness* witness) {
  ErResult result;
  if (witness != nullptr) *witness = ErWitness{};

  // Gather contained rewritings from the applicable engine.
  Result<Query> qp = Preprocess(q);
  if (!qp.ok()) {
    if (qp.status().code() == StatusCode::kInconsistent) {
      // The empty query: any inconsistent rewriting is an ER; represent it
      // as the empty union.
      result.union_er = UnionQuery{};
      if (witness != nullptr) witness->query_inconsistent = true;
      return result;
    }
    return qp.status();
  }

  // A Datalog MCR has no finite CRs to test: the bucket supplies them.
  const bool lsi =
      ChooseRewriteAlgorithm(qp.value(), views) == RewriteAlgorithm::kLsiMcr;
  CQAC_ASSIGN_OR_RETURN(
      ViewPlan plan,
      RunRewriteAlgorithm(
          ctx, lsi ? RewriteAlgorithm::kLsiMcr : RewriteAlgorithm::kBucket,
          qp.value(), views, witness != nullptr ? &witness->forward : nullptr));
  const UnionQuery& crs = plan.union_plan;
  if (witness != nullptr) witness->crs = crs;

  // A single CR whose expansion contains the query is an ER. The per-CR
  // back-containment checks are independent; the merge walks them in CR
  // order, so the *first* CR that qualifies wins exactly as in the serial
  // scan. A qualifying (or hard-erroring) CR cancels its siblings.
  struct BackOutcome {
    Status error = Status::OK();
    bool skipped = false;  // back-check exhausted its budget: ignore the CR
    bool contained = false;
    ContainmentWitness back_witness;
  };
  ParallelOutcomes<BackOutcome> backs(
      ctx, crs.disjuncts.size(),
      [&](size_t i) {
        BackOutcome out;
        Result<Query> exp = ExpandRewriting(crs.disjuncts[i], views);
        if (!exp.ok()) {
          out.error = exp.status();
          return out;
        }
        Result<bool> back =
            IsContained(ctx, qp.value(), exp.value(), {},
                        witness != nullptr ? &out.back_witness : nullptr);
        if (!back.ok()) {
          if (back.status().code() == StatusCode::kResourceExhausted)
            out.skipped = true;
          else
            out.error = back.status();
          return out;
        }
        out.contained = back.value();
        return out;
      },
      [](const BackOutcome& o) { return !o.error.ok() || o.contained; });
  for (size_t i = 0; i < crs.disjuncts.size(); ++i) {
    BackOutcome& o = backs.Get(i);
    CQAC_RETURN_IF_ERROR(o.error);
    if (o.skipped || !o.contained) continue;
    result.single = crs.disjuncts[i];
    if (witness != nullptr) {
      witness->single_index = static_cast<int>(i);
      witness->back = std::move(o.back_witness);
    }
    return result;
  }

  if (!crs.disjuncts.empty()) {
    // Corollary 3.1: an ER may need to be a union. The CRs are contained by
    // construction; equivalence needs the query contained in the union of
    // expansions.
    UnionQuery expansions;
    for (const Query& cr : crs.disjuncts) {
      CQAC_ASSIGN_OR_RETURN(Query exp, ExpandRewriting(cr, views));
      expansions.disjuncts.push_back(std::move(exp));
    }
    CQAC_ASSIGN_OR_RETURN(bool covered,
                          IsContainedInUnion(ctx, qp.value(), expansions));
    if (covered) result.union_er = crs;
  }
  return result;
}

}  // namespace cqac
