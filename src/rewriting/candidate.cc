#include "src/rewriting/candidate.h"

#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/engine/parallel.h"
#include "src/ir/expansion.h"

namespace cqac {

Result<std::optional<Query>> PrepareQuery(const Query& q,
                                          RewritingWitness* witness) {
  if (witness != nullptr) *witness = RewritingWitness{};
  Result<Query> qp = Preprocess(q);
  if (!qp.ok()) {
    if (qp.status().code() == StatusCode::kInconsistent)
      return std::optional<Query>();
    return qp.status();
  }
  if (witness != nullptr) witness->query = qp.value();
  return std::optional<Query>(std::move(qp).value());
}

Result<ViewSet> PrepareViews(const ViewSet& views, RewritingWitness* witness) {
  ViewSet prepped;
  for (const Query& v : views.views()) {
    Result<Query> vp = Preprocess(v);
    if (!vp.ok()) {
      if (vp.status().code() == StatusCode::kInconsistent) continue;
      return vp.status();
    }
    CQAC_RETURN_IF_ERROR(prepped.Add(std::move(vp).value()));
  }
  if (witness != nullptr) witness->views = prepped.views();
  return prepped;
}

Result<bool> VerifyCandidate(EngineContext& ctx, const Query& candidate,
                             const Query& query, const ViewSet& views,
                             ContainmentWitness* witness) {
  CQAC_ASSIGN_OR_RETURN(Query exp, ExpandRewriting(candidate, views));
  Result<Query> expp = Preprocess(exp);
  bool accepted = false;
  if (expp.ok()) {
    CQAC_ASSIGN_OR_RETURN(accepted,
                          IsContained(ctx, expp.value(), query, {}, witness));
  } else if (expp.status().code() != StatusCode::kInconsistent) {
    return expp.status();
  }
  if (!accepted) ++ctx.stats().rewrite_verified_rejects;
  return accepted;
}

void UnionCollector::Add(CandidateOutcome& outcome) {
  for (size_t k = 0; k < outcome.accepted.size(); ++k) {
    if (!seen_.insert(outcome.accepted[k].ToString()).second) continue;
    union_.disjuncts.push_back(std::move(outcome.accepted[k]));
    if (witness_ != nullptr)
      witness_->disjuncts.push_back(std::move(outcome.witnesses[k]));
  }
}

namespace {

bool TryMap(const Atom& qa, const std::vector<bool>& q_dist, const Atom& va,
            const std::vector<bool>& v_dist, VarMap* phi,
            std::map<int, Value>* const_bindings) {
  if (qa.predicate != va.predicate || qa.args.size() != va.args.size())
    return false;
  for (size_t p = 0; p < qa.args.size(); ++p) {
    const Term& qt = qa.args[p];
    const Term& vt = va.args[p];
    if (qt.is_const()) {
      if (vt.is_const()) {
        if (!(qt.value() == vt.value())) return false;
      } else if (!v_dist[vt.var()]) {
        return false;  // a constant cannot be pushed to a hidden position
      } else {
        auto [it, inserted] = const_bindings->emplace(vt.var(), qt.value());
        if (!inserted && !(it->second == qt.value())) return false;
      }
      continue;
    }
    if (q_dist[qt.var()] && vt.is_var() && !v_dist[vt.var()]) return false;
    if (!phi->Bind(qt.var(), vt)) return false;
  }
  return true;
}

}  // namespace

bool MapSubgoals(const Query& q, const ViewSet& views,
                 std::vector<std::vector<SubgoalMapping>>* choices) {
  choices->clear();
  const std::vector<bool> q_dist = q.DistinguishedMask();
  std::vector<std::vector<bool>> v_dist;
  v_dist.reserve(views.size());
  for (const Query& view : views.views())
    v_dist.push_back(view.DistinguishedMask());
  for (const Atom& qa : q.body()) {
    std::vector<SubgoalMapping>& maps = choices->emplace_back();
    for (size_t vi = 0; vi < views.size(); ++vi) {
      for (const Atom& va : views[vi].body()) {
        VarMap phi(q.num_vars());
        std::map<int, Value> const_bindings;
        if (TryMap(qa, q_dist, va, v_dist[vi], &phi, &const_bindings))
          maps.push_back(SubgoalMapping{static_cast<int>(vi), std::move(phi),
                                        std::move(const_bindings)});
      }
    }
    if (maps.empty()) return false;
  }
  return true;
}

Status VerifyProduct(EngineContext& ctx,
                     const std::vector<std::vector<SubgoalMapping>>& choices,
                     const char* exhausted, const char* deadline_what,
                     PickVerifier verify, UnionCollector* out) {
  constexpr size_t kBlock = 64;
  using Pick = std::vector<const SubgoalMapping*>;
  Status status = Status::OK();
  std::vector<size_t> idx(choices.size(), 0);
  size_t picks = 0;
  bool exhausted_product = false;
  while (!exhausted_product && status.ok()) {
    // Generate (and charge) the next block serially.
    std::vector<Pick> block;
    while (block.size() < kBlock && !exhausted_product) {
      if (++picks > ctx.budget().max_mappings) {
        ++ctx.stats().budget_exhaustions;
        status = Status::ResourceExhausted(exhausted);
        break;
      }
      status = ctx.budget().CheckDeadline(deadline_what);
      if (!status.ok()) {
        ++ctx.stats().budget_exhaustions;
        break;
      }
      ++ctx.stats().rewrite_candidates;
      Pick pick(choices.size());
      for (size_t gi = 0; gi < choices.size(); ++gi)
        pick[gi] = &choices[gi][idx[gi]];
      block.push_back(std::move(pick));
      size_t gi = choices.size();
      while (gi > 0) {
        if (++idx[gi - 1] < choices[gi - 1].size()) break;
        idx[--gi] = 0;
      }
      if (gi == 0) exhausted_product = true;
    }
    // A block cut short by the budget or the deadline is discarded with
    // the whole product, so it is not verified.
    if (block.empty() || !status.ok()) break;

    // Verify it in parallel; merge in pick order.
    ParallelOutcomes<CandidateOutcome> outcomes(
        ctx, block.size(), [&](size_t i) { return verify(block[i]); },
        [](const CandidateOutcome& o) { return !o.error.ok(); });
    for (size_t i = 0; i < block.size(); ++i) {
      CandidateOutcome& o = outcomes.Get(i);
      if (!o.error.ok()) {
        status = o.error;
        break;
      }
      out->Add(o);
    }
  }
  return status;
}

}  // namespace cqac
