#include "src/rewriting/mcd.h"

#include <algorithm>
#include <deque>

#include "src/base/strings.h"
#include "src/constraints/implication.h"

namespace cqac {

std::string Mcd::ToString(const Query& q, const Query& view) const {
  std::vector<std::string> goals;
  for (int g : covered) {
    const Atom& a = q.body()[g];
    std::vector<std::string> args;
    for (const Term& t : a.args) args.push_back(q.TermToString(t));
    goals.push_back(a.predicate + "(" + Join(args, ", ") + ")");
  }
  return StrCat("MCD{view=", view.head().predicate, ", covers=[",
                Join(goals, ", "), "], phi=",
                VarMapToString(phi, q, view), ", hh=", hh.ToString(view), "}");
}

namespace {

/// Cap on export-homomorphism combinations explored per MCD skeleton (a
/// structural fan-out bound; the overall MCD count is charged to the
/// context's Budget::max_mappings).
constexpr size_t kMaxExportCombinations = 256;

/// In-flight MCD construction state.
struct BuildState {
  std::set<int> covered;
  VarMap phi;
  HeadHomomorphism hh;
  std::map<int, Value> const_bindings;  // view var -> constant

  BuildState(int qvars, int vvars) : phi(qvars), hh(vvars) {}
};

class McdBuilder {
 public:
  McdBuilder(const Query& q, const Query& view, int view_index,
             const ExportAnalysis& analysis, size_t max_mcds,
             std::vector<Mcd>* out)
      : q_(q), view_(view), view_index_(view_index), analysis_(analysis),
        max_mcds_(max_mcds), out_(out),
        q_distinguished_(q.DistinguishedMask()),
        v_distinguished_(view.DistinguishedMask()) {
    // Precompute, per query variable, the subgoals it occurs in.
    occurs_in_.resize(q_.num_vars());
    for (size_t g = 0; g < q_.body().size(); ++g)
      for (const Term& t : q_.body()[g].args)
        if (t.is_var()) occurs_in_[t.var()].insert(static_cast<int>(g));
  }

  /// Seeds an MCD at (query subgoal gi -> view subgoal vj) and emits all
  /// completions.
  void Seed(int gi, int vj) {
    BuildState st(q_.num_vars(), view_.num_vars());
    if (!Assign(gi, vj, &st)) return;
    Complete(std::move(st));
  }

 private:
  // Merges two view variables in the head homomorphism.
  static void Merge(BuildState* st, int a, int b) { st->hh.Union(a, b); }

  // Records that view variable `w` must carry constant `c` in the rewriting.
  bool BindConst(BuildState* st, int w, const Value& c) {
    auto it = st->const_bindings.find(w);
    if (it != st->const_bindings.end()) return it->second == c;
    st->const_bindings.emplace(w, c);
    return true;
  }

  // Extends the state by mapping query subgoal `gi` onto view subgoal `vj`.
  bool Assign(int gi, int vj, BuildState* st) {
    const Atom& qa = q_.body()[gi];
    const Atom& va = view_.body()[vj];
    if (qa.predicate != va.predicate || qa.args.size() != va.args.size())
      return false;
    st->covered.insert(gi);
    for (size_t p = 0; p < qa.args.size(); ++p) {
      const Term& qt = qa.args[p];
      const Term& vt = va.args[p];
      if (qt.is_const()) {
        if (vt.is_const()) {
          if (!(qt.value() == vt.value())) return false;
        } else {
          // A query constant lands on a view variable: that variable must be
          // usable and carry the constant.
          if (!analysis_.Usable(vt.var())) return false;
          if (!BindConst(st, vt.var(), qt.value())) return false;
        }
        continue;
      }
      // Query variable.
      if (!st->phi.Bind(qt.var(), vt)) {
        // X already mapped to a different view term: the two view terms must
        // be equal in the rewriting.
        const Term& prev = st->phi.Get(qt.var());
        if (prev.is_const() && vt.is_const())
          return prev.value() == vt.value();
        if (prev.is_const() || vt.is_const()) {
          const Term& cv = prev.is_const() ? prev : vt;
          const Term& vv = prev.is_const() ? vt : prev;
          if (!analysis_.Usable(vv.var())) return false;
          if (!BindConst(st, vv.var(), cv.value())) return false;
        } else {
          // Equate two view variables via the head homomorphism; both must
          // be usable for the merge to be realizable (Section 4.3).
          if (!analysis_.Usable(prev.var()) || !analysis_.Usable(vt.var()))
            return false;
          Merge(st, prev.var(), vt.var());
        }
      }
    }
    return true;
  }

  // After assignments, finds a query variable whose image forces pulling
  // more subgoals into the MCD (the MiniCon shared-variable condition);
  // returns the first uncovered subgoal to pull, or -1 when closed.
  int FindPull(const BuildState& st) const {
    for (int x = 0; x < q_.num_vars(); ++x) {
      if (!st.phi.IsBound(x)) continue;
      const Term& w = st.phi.Get(x);
      if (!w.is_var()) continue;
      if (analysis_.Usable(w.var())) continue;
      // Image is nondistinguished and not exportable: every subgoal of X
      // must live inside this MCD.
      if (q_distinguished_[x]) return -2;  // impossible: cannot be returned
      for (int g : occurs_in_[x])
        if (!st.covered.count(g)) return g;
    }
    return -1;
  }

  // Recursively closes the MCD, then applies exports and emits.
  void Complete(BuildState st) {
    if (out_->size() >= max_mcds_) return;
    int pull = FindPull(st);
    if (pull == -2) return;  // a distinguished query var hit an unusable image
    if (pull >= 0) {
      // Branch over every view subgoal that can host the pulled subgoal.
      for (size_t vj = 0; vj < view_.body().size(); ++vj) {
        BuildState next = st;
        if (Assign(pull, static_cast<int>(vj), &next))
          Complete(std::move(next));
      }
      return;
    }
    EmitWithExports(std::move(st));
  }

  // Variables that must end up in a distinguished class.
  std::set<int> NeedUsable(const BuildState& st) const {
    std::set<int> need;
    for (int x = 0; x < q_.num_vars(); ++x) {
      if (!st.phi.IsBound(x)) continue;
      const Term& w = st.phi.Get(x);
      if (!w.is_var()) continue;
      bool escapes = q_distinguished_[x];
      for (int g : occurs_in_[x])
        if (!st.covered.count(g)) escapes = true;
      if (escapes) need.insert(w.var());
    }
    for (const auto& [w, c] : st.const_bindings) need.insert(w);
    return need;
  }

  bool ClassHasDistinguished(const HeadHomomorphism& hh, int w) const {
    for (int v = 0; v < view_.num_vars(); ++v)
      if (v_distinguished_[v] && hh.Same(v, w)) return true;
    return false;
  }

  // The view's comparisons plus the equalities a head homomorphism imposes.
  std::vector<Comparison> ViewAcsUnder(const HeadHomomorphism& hh,
                                       const std::map<int, Value>& consts)
      const {
    std::vector<Comparison> cs = view_.comparisons();
    for (int v = 0; v < view_.num_vars(); ++v) {
      int r = hh.Find(v);
      if (r != v)
        cs.push_back(Comparison(Term::Var(v), CompOp::kEq, Term::Var(r)));
    }
    for (const auto& [w, c] : consts)
      cs.push_back(Comparison(Term::Var(w), CompOp::kEq, Term::Const(c)));
    return cs;
  }

  void EmitWithExports(BuildState st) {
    std::set<int> need = NeedUsable(st);

    // Per class needing export, the alternative homomorphisms (any member's
    // export choices will do).
    std::vector<std::vector<HeadHomomorphism>> choices;
    std::set<int> classes_handled;
    for (int w : need) {
      if (ClassHasDistinguished(st.hh, w)) continue;
      int rep = st.hh.Find(w);
      if (classes_handled.count(rep)) continue;
      classes_handled.insert(rep);
      std::vector<HeadHomomorphism> alts;
      for (int m = 0; m < view_.num_vars(); ++m) {
        if (!st.hh.Same(m, w)) continue;
        for (HeadHomomorphism& h : analysis_.ExportHomomorphisms(m))
          if (std::find(alts.begin(), alts.end(), h) == alts.end())
            alts.push_back(std::move(h));
      }
      if (alts.empty()) return;  // some class cannot be made usable
      choices.push_back(std::move(alts));
    }

    // Cartesian product of export choices, capped.
    std::vector<HeadHomomorphism> combos{st.hh};
    for (const auto& alts : choices) {
      std::vector<HeadHomomorphism> next;
      for (const HeadHomomorphism& base : combos)
        for (const HeadHomomorphism& h : alts) {
          next.push_back(HeadHomomorphism::Combine(base, h));
          if (next.size() > kMaxExportCombinations) break;
        }
      combos = std::move(next);
    }

    // Keep only the least restrictive combinations whose induced equalities
    // are consistent with the view's comparisons.
    std::vector<HeadHomomorphism> minimal;
    for (const HeadHomomorphism& h : combos) {
      if (!AcsConsistent(ViewAcsUnder(h, st.const_bindings))) continue;
      bool usable_ok = true;
      for (int w : need)
        if (!ClassHasDistinguished(h, w)) usable_ok = false;
      if (!usable_ok) continue;
      minimal.push_back(h);
    }
    // Drop any homomorphism strictly more restrictive than another kept one.
    std::vector<HeadHomomorphism> pruned;
    for (const HeadHomomorphism& h : minimal) {
      bool dominated = false;
      for (const HeadHomomorphism& g : minimal)
        if (!(g == h) && g.RefinedBy(h)) dominated = true;
      if (!dominated) pruned.push_back(h);
    }

    for (const HeadHomomorphism& h : pruned) {
      if (out_->size() >= max_mcds_) return;
      Mcd mcd(q_.num_vars(), view_.num_vars());
      mcd.view_index = view_index_;
      mcd.covered.assign(st.covered.begin(), st.covered.end());
      mcd.phi = st.phi;
      mcd.hh = h;
      for (const auto& [w, c] : st.const_bindings)
        mcd.const_bindings.emplace(h.Find(w), c);
      // Deduplicate.
      bool dup = false;
      for (const Mcd& existing : *out_) {
        if (existing.view_index == mcd.view_index &&
            existing.covered == mcd.covered && existing.phi == mcd.phi &&
            existing.hh == mcd.hh &&
            existing.const_bindings == mcd.const_bindings)
          dup = true;
      }
      if (!dup) out_->push_back(std::move(mcd));
    }
  }

  const Query& q_;
  const Query& view_;
  int view_index_;
  const ExportAnalysis& analysis_;
  size_t max_mcds_;
  std::vector<Mcd>* out_;
  std::vector<bool> q_distinguished_;
  std::vector<bool> v_distinguished_;
  std::vector<std::set<int>> occurs_in_;
};

}  // namespace

Result<std::vector<Mcd>> ConstructMcds(
    EngineContext& ctx, const Query& q, const ViewSet& views,
    const std::vector<ExportAnalysis>& analyses) {
  if (analyses.size() != views.size())
    return Status::InvalidArgument("analyses must parallel views");
  const size_t max_mcds = ctx.budget().max_mappings;
  std::vector<Mcd> out;
  for (size_t vi = 0; vi < views.size(); ++vi) {
    McdBuilder builder(q, views[vi], static_cast<int>(vi), analyses[vi],
                       max_mcds, &out);
    for (size_t gi = 0; gi < q.body().size(); ++gi) {
      CQAC_RETURN_IF_ERROR(ctx.budget().CheckDeadline("MCD construction"));
      for (size_t vj = 0; vj < views[vi].body().size(); ++vj)
        builder.Seed(static_cast<int>(gi), static_cast<int>(vj));
    }
    if (out.size() >= max_mcds) {
      ++ctx.stats().budget_exhaustions;
      return Status::ResourceExhausted(
          "MCD construction exceeded the mapping budget");
    }
  }
  return out;
}

}  // namespace cqac
