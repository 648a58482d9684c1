#include "src/containment/homomorphism.h"

namespace cqac {
namespace {

/// Backtracking search over `from`'s body atoms.
class HomSearch {
 public:
  HomSearch(EngineContext& ctx, const Query& from, const Query& to,
            FunctionRef<bool(const VarMap&)> cb)
      : ctx_(ctx), from_(from), to_(to), cb_(cb), map_(from.num_vars()) {}

  EnumerationOutcome Run() {
    ++ctx_.stats().hom_enumerations;
    if (from_.head().args.size() != to_.head().args.size())
      return EnumerationOutcome::kCompleted;
    for (size_t i = 0; i < from_.head().args.size(); ++i)
      if (!UnifyTerm(from_.head().args[i], to_.head().args[i]))
        return EnumerationOutcome::kCompleted;  // heads cannot match
    bool completed = Match(0);
    if (outcome_ == EnumerationOutcome::kBudgetExhausted) {
      ++ctx_.stats().budget_exhaustions;
      return outcome_;
    }
    return completed ? EnumerationOutcome::kCompleted
                     : EnumerationOutcome::kAborted;
  }

 private:
  // Maps `from` term `ft` onto `to` term `tt`; returns false on conflict.
  // Does not record an undo trail — callers snapshot map_ instead.
  bool UnifyTerm(const Term& ft, const Term& tt) {
    if (ft.is_const()) {
      // Constants map to themselves only.
      return tt.is_const() && ft.value() == tt.value();
    }
    return map_.Bind(ft.var(), tt);
  }

  // Polls the deadline and the context's cancellation flag every 256
  // search steps. Steps are counted per target-atom attempt (not just per
  // recursion level), so exhaustion fires promptly even inside one huge
  // candidate whose branching lives in a single wide atom loop.
  bool Checkpoint() {
    if ((++steps_ & 0xFF) != 0 || !ctx_.ShouldStop()) return true;
    outcome_ = EnumerationOutcome::kBudgetExhausted;
    return false;
  }

  bool Match(size_t atom_idx) {
    if (!Checkpoint()) return false;
    if (atom_idx == from_.body().size()) {
      if (++found_ > ctx_.budget().max_homomorphisms) {
        outcome_ = EnumerationOutcome::kBudgetExhausted;
        return false;
      }
      ++ctx_.stats().homomorphisms_found;
      return cb_(map_);
    }
    const Atom& fa = from_.body()[atom_idx];
    for (const Atom& ta : to_.body()) {
      if (!Checkpoint()) return false;
      if (ta.predicate != fa.predicate || ta.args.size() != fa.args.size())
        continue;
      VarMap saved = map_;
      bool ok = true;
      for (size_t i = 0; i < fa.args.size() && ok; ++i)
        ok = UnifyTerm(fa.args[i], ta.args[i]);
      if (ok && !Match(atom_idx + 1)) return false;
      map_ = std::move(saved);
    }
    return true;
  }

  EngineContext& ctx_;
  const Query& from_;
  const Query& to_;
  FunctionRef<bool(const VarMap&)> cb_;
  VarMap map_;
  size_t found_ = 0;
  uint64_t steps_ = 0;
  EnumerationOutcome outcome_ = EnumerationOutcome::kCompleted;
};

}  // namespace

EnumerationOutcome ForEachHomomorphism(EngineContext& ctx, const Query& from,
                                       const Query& to,
                                       FunctionRef<bool(const VarMap&)> cb) {
  HomSearch search(ctx, from, to, cb);
  return search.Run();
}

Result<std::vector<VarMap>> FindHomomorphisms(EngineContext& ctx,
                                              const Query& from,
                                              const Query& to) {
  std::vector<VarMap> out;
  EnumerationOutcome outcome =
      ForEachHomomorphism(ctx, from, to, [&out](const VarMap& m) {
        out.push_back(m);
        return true;
      });
  if (outcome == EnumerationOutcome::kBudgetExhausted)
    return Status::ResourceExhausted(
        "homomorphism enumeration exceeded the budget");
  return out;
}

Result<bool> HomomorphismExists(EngineContext& ctx, const Query& from,
                                const Query& to) {
  EnumerationOutcome outcome = ForEachHomomorphism(
      ctx, from, to, [](const VarMap&) { return false; });
  if (outcome == EnumerationOutcome::kBudgetExhausted)
    return Status::ResourceExhausted(
        "homomorphism search exceeded the budget");
  return outcome == EnumerationOutcome::kAborted;  // aborted == found one
}

}  // namespace cqac
