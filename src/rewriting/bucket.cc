#include "src/rewriting/bucket.h"

#include <map>
#include <optional>

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/containment/containment.h"
#include "src/containment/homomorphism.h"
#include "src/engine/parallel.h"
#include "src/ir/expansion.h"
#include "src/ir/substitution.h"

namespace cqac {
namespace {

/// One bucket entry: a view whose subgoal `vj` can host query subgoal `gi`,
/// with the induced partial map from query variables to view terms.
struct BucketEntry {
  int view_index;
  int view_subgoal;
  VarMap phi;
  // Query constants that landed on (distinguished) view variables.
  std::map<int, Value> const_bindings;

  BucketEntry(int vi, int vj, VarMap m)
      : view_index(vi), view_subgoal(vj), phi(std::move(m)) {}
};

// Attempts the partial mapping query-subgoal -> view-subgoal required by the
// bucket algorithm: distinguished query variables must land on distinguished
// view variables (or constants).
bool TryMap(const Query& q, const Atom& qa, const Query& view, const Atom& va,
            VarMap* phi, std::map<int, Value>* const_bindings) {
  if (qa.predicate != va.predicate || qa.args.size() != va.args.size())
    return false;
  std::vector<bool> q_dist = q.DistinguishedMask();
  std::vector<bool> v_dist = view.DistinguishedMask();
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
    if (q_dist[qt.var()]) {
      bool exposed = vt.is_const() || v_dist[vt.var()];
      if (!exposed) return false;
    }
    if (!phi->Bind(qt.var(), vt)) return false;
  }
  return true;
}

}  // namespace

Result<UnionQuery> BucketRewrite(EngineContext& ctx, const Query& q,
                                 const ViewSet& views,
                                 const BucketOptions& options,
                                 BucketStats* stats,
                                 RewritingWitness* witness) {
  BucketStats local;
  if (stats == nullptr) stats = &local;
  *stats = BucketStats{};
  if (witness != nullptr) *witness = RewritingWitness{};

  Result<Query> qp_result = Preprocess(q);
  if (!qp_result.ok()) {
    if (qp_result.status().code() == StatusCode::kInconsistent)
      return UnionQuery{};
    return qp_result.status();
  }
  Query qp = std::move(qp_result).value();
  if (witness != nullptr) witness->query = qp;

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

  // Build the buckets.
  std::vector<std::vector<BucketEntry>> buckets(qp.body().size());
  for (size_t gi = 0; gi < qp.body().size(); ++gi) {
    for (size_t vi = 0; vi < prepped.size(); ++vi) {
      const Query& view = prepped[vi];
      for (size_t vj = 0; vj < view.body().size(); ++vj) {
        VarMap phi(qp.num_vars());
        std::map<int, Value> const_bindings;
        if (TryMap(qp, qp.body()[gi], view, view.body()[vj], &phi,
                   &const_bindings)) {
          BucketEntry entry(static_cast<int>(vi), static_cast<int>(vj),
                            std::move(phi));
          entry.const_bindings = std::move(const_bindings);
          buckets[gi].push_back(std::move(entry));
          ++stats->bucket_entries;
        }
      }
    }
    if (buckets[gi].empty()) return UnionQuery{};  // uncoverable subgoal
  }

  UnionQuery result;
  Status inner = Status::OK();

  // Builds and verifies the candidate for `pick`. Accepted variants (and
  // their witnesses) are appended to *accepted / *accepted_witnesses in
  // enumeration order; `reject_count` tallies verified rejects. Returns
  // false on a hard error (via `err`).
  auto try_candidate = [&](const std::vector<const BucketEntry*>& pick,
                           Status* err, std::vector<Query>* accepted,
                           std::vector<ContainmentWitness>* accepted_witnesses,
                           uint64_t* reject_count) {
    Query cand;
    cand.head().predicate = qp.head().predicate;

    // Query variable -> candidate term: a variable is exposed if some picked
    // entry maps it to a distinguished view variable or constant.
    std::vector<std::optional<Term>> qvar_term(qp.num_vars());
    auto term_for = [&](int qv) -> Term {
      if (!qvar_term[qv].has_value())
        qvar_term[qv] = Term::Var(cand.FindOrAddVariable(qp.VarName(qv)));
      return *qvar_term[qv];
    };

    // Pass 1: constants reached by query variables pin them.
    for (size_t gi = 0; gi < pick.size(); ++gi) {
      const BucketEntry* e = pick[gi];
      for (int qv = 0; qv < qp.num_vars(); ++qv) {
        if (!e->phi.IsBound(qv) || qvar_term[qv].has_value()) continue;
        const Term& img = e->phi.Get(qv);
        if (img.is_const()) qvar_term[qv] = img;
      }
    }
    // Pass 2: emit one view atom per subgoal.
    for (size_t gi = 0; gi < pick.size(); ++gi) {
      const BucketEntry* e = pick[gi];
      const Query& view = prepped[e->view_index];
      Atom atom;
      atom.predicate = view.head().predicate;
      for (const Term& ht : view.head().args) {
        if (ht.is_const()) {
          atom.args.push_back(ht);
          continue;
        }
        auto cb = e->const_bindings.find(ht.var());
        if (cb != e->const_bindings.end()) {
          atom.args.push_back(Term::Const(cb->second));
          continue;
        }
        // Does some query variable map onto this head variable?
        int qv_here = -1;
        for (int qv = 0; qv < qp.num_vars() && qv_here < 0; ++qv)
          if (e->phi.IsBound(qv) && e->phi.Get(qv) == Term::Var(ht.var()))
            qv_here = qv;
        if (qv_here >= 0) {
          atom.args.push_back(term_for(qv_here));
        } else {
          atom.args.push_back(Term::Var(cand.AddFreshVariable(
              StrCat(view.head().predicate, "_", view.VarName(ht.var())))));
        }
      }
      cand.AddBodyAtom(std::move(atom));
    }
    // Head.
    for (const Term& t : qp.head().args) {
      if (t.is_const()) {
        cand.head().args.push_back(t);
        continue;
      }
      // A head variable that never reached an exposed position cannot be
      // returned: candidate fails.
      bool bound = false;
      for (const BucketEntry* e : pick)
        if (e->phi.IsBound(t.var())) bound = true;
      if (!bound) return true;  // skip candidate, keep searching
      cand.head().args.push_back(term_for(t.var()));
    }
    // Comparisons: map each query comparison onto candidate terms when the
    // variable is exposed; an unexposed compared variable kills the
    // candidate only under ac_aware (otherwise comparisons are ignored and
    // verification rejects the unsound candidate).
    if (options.ac_aware) {
      for (const Comparison& c : qp.comparisons()) {
        auto translate = [&](const Term& t) -> std::optional<Term> {
          if (t.is_const()) return t;
          if (qvar_term[t.var()].has_value()) return *qvar_term[t.var()];
          return std::nullopt;
        };
        std::optional<Term> lhs = translate(c.lhs);
        std::optional<Term> rhs = translate(c.rhs);
        if (!lhs.has_value() || !rhs.has_value()) return true;  // skip
        cand.AddComparison(Comparison(*lhs, c.op, *rhs));
      }
      if (!AcsConsistent(cand.comparisons())) return true;
    }

    // Verify the candidate and, following the bucket algorithm's final
    // step, variants obtained by equating atoms of the same view (this is
    // how the bucket algorithm recovers rewritings where one view covers
    // several query subgoals).
    std::vector<Query> variants{std::move(cand)};
    std::set<std::string> seen_variant{variants[0].ToString()};
    for (size_t vi = 0; vi < variants.size() && variants.size() < 64; ++vi) {
      for (size_t i = 0; i < variants[vi].body().size(); ++i) {
        for (size_t j = i + 1; j < variants[vi].body().size(); ++j) {
          Query merged;
          if (!UnifyBodyAtoms(variants[vi], i, j, &merged)) continue;
          if (seen_variant.insert(merged.ToString()).second)
            variants.push_back(std::move(merged));
        }
      }
    }
    for (const Query& variant : variants) {
      Result<Query> exp = ExpandRewriting(variant, prepped);
      if (!exp.ok()) {
        *err = exp.status();
        return false;
      }
      Result<Query> expp = Preprocess(exp.value());
      if (!expp.ok()) {
        if (expp.status().code() == StatusCode::kInconsistent) {
          ++*reject_count;
          ++ctx.stats().rewrite_verified_rejects;
          continue;
        }
        *err = expp.status();
        return false;
      }
      ContainmentWitness variant_witness;
      Result<bool> contained =
          IsContained(ctx, expp.value(), qp, {},
                      witness != nullptr ? &variant_witness : nullptr);
      if (!contained.ok()) {
        *err = contained.status();
        return false;
      }
      if (!contained.value()) {
        ++*reject_count;
        ++ctx.stats().rewrite_verified_rejects;
        continue;
      }
      accepted->push_back(CompactVariables(variant));
      accepted_witnesses->push_back(std::move(variant_witness));
    }
    return true;
  };

  // The cartesian product over the buckets, in the lexicographic order of
  // the old recursive enumeration (pick[last] advances fastest). Picks are
  // generated serially in fixed-size blocks — each pick is charged against
  // the mapping budget and the deadline at generation, exactly where the
  // fused loop checked them — and each block's candidates verify in
  // parallel. The block size is thread-count independent so budget
  // charging (and thus exhaustion points) never depends on parallelism.
  struct PickOutcome {
    Status error = Status::OK();
    std::vector<Query> accepted;
    std::vector<ContainmentWitness> witnesses;
    uint64_t rejects = 0;
  };
  constexpr size_t kBlock = 64;

  std::vector<size_t> idx(buckets.size(), 0);
  bool exhausted_product = false;
  while (!exhausted_product && inner.ok()) {
    std::vector<std::vector<const BucketEntry*>> block;
    while (block.size() < kBlock && !exhausted_product) {
      if (++stats->candidates > ctx.budget().max_mappings) {
        ++ctx.stats().budget_exhaustions;
        inner = Status::ResourceExhausted(
            "bucket candidate enumeration exceeded the mapping budget");
        break;
      }
      inner = ctx.budget().CheckDeadline("bucket candidate enumeration");
      if (!inner.ok()) {
        ++ctx.stats().budget_exhaustions;
        break;
      }
      ++ctx.stats().rewrite_candidates;
      std::vector<const BucketEntry*> pick(buckets.size());
      for (size_t gi = 0; gi < buckets.size(); ++gi)
        pick[gi] = &buckets[gi][idx[gi]];
      block.push_back(std::move(pick));
      // Advance the counter, last subgoal fastest.
      size_t gi = buckets.size();
      while (gi > 0) {
        if (++idx[gi - 1] < buckets[gi - 1].size()) break;
        idx[--gi] = 0;
      }
      if (gi == 0) exhausted_product = true;
    }
    if (block.empty()) break;

    ParallelOutcomes<PickOutcome> outcomes(
        ctx, block.size(),
        [&](size_t i) {
          PickOutcome out;
          try_candidate(block[i], &out.error, &out.accepted, &out.witnesses,
                        &out.rejects);
          return out;
        },
        [](const PickOutcome& o) { return !o.error.ok(); });
    for (size_t i = 0; i < block.size() && inner.ok(); ++i) {
      PickOutcome& o = outcomes.Get(i);
      if (!o.error.ok()) {
        inner = o.error;
        break;
      }
      stats->verified_rejects += o.rejects;
      for (size_t k = 0; k < o.accepted.size(); ++k) {
        bool dup = false;
        for (const Query& existing : result.disjuncts)
          if (existing.ToString() == o.accepted[k].ToString()) dup = true;
        if (!dup) {
          result.disjuncts.push_back(std::move(o.accepted[k]));
          if (witness != nullptr)
            witness->disjuncts.push_back(std::move(o.witnesses[k]));
        }
      }
    }
  }
  CQAC_RETURN_IF_ERROR(inner);
  return result;
}

}  // namespace cqac
