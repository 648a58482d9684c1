#include "src/containment/containment.h"

#include <algorithm>

#include "src/base/function_ref.h"
#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/containment/homomorphism.h"
#include "src/engine/parallel.h"
#include "src/eval/evaluate.h"

namespace cqac {
namespace {

/// Preprocesses `q`; sets *inconsistent instead of failing when the
/// comparisons are unsatisfiable.
Result<Query> PreprocessOrFlag(const Query& q, bool* inconsistent) {
  *inconsistent = false;
  Result<Query> r = Preprocess(q);
  if (!r.ok() && r.status().code() == StatusCode::kInconsistent) {
    *inconsistent = true;
    return q;  // placeholder; caller must check the flag
  }
  return r;
}

/// Simplifies one disjunct (an image mu_i(beta1) over q2's terms):
///  * constant-constant comparisons evaluate away (false kills the disjunct);
///  * an ordered comparison touching a symbolic constant kills the disjunct
///    (symbols are unordered, so it is unsatisfiable).
/// Returns false iff the disjunct is dead.
bool SanitizeImage(std::vector<Comparison>* cs) {
  std::vector<Comparison> kept;
  for (const Comparison& c : *cs) {
    bool lhs_sym = c.lhs.is_const() && c.lhs.value().is_symbol();
    bool rhs_sym = c.rhs.is_const() && c.rhs.value().is_symbol();
    if (c.op == CompOp::kEq) {
      if (c.lhs == c.rhs) continue;
      if (c.lhs.is_const() && c.rhs.is_const()) {
        if (c.lhs.value() == c.rhs.value()) continue;
        return false;
      }
      kept.push_back(c);
      continue;
    }
    if (lhs_sym || rhs_sym) return false;
    if (c.lhs.is_const() && c.rhs.is_const()) {
      if (!EvaluateGroundComparison(c.lhs.value(), c.op, c.rhs.value()))
        return false;
      continue;
    }
    if (c.lhs == c.rhs) {
      if (c.op == CompOp::kLt) return false;
      continue;  // X <= X
    }
    kept.push_back(c);
  }
  *cs = std::move(kept);
  return true;
}

/// Flattens a total containment mapping into a dense vector indexed by the
/// container's variable ids. Returns false when some variable is unbound
/// (impossible for validated containers, where every variable occurs in the
/// body).
bool FlattenMapping(const VarMap& mu, std::vector<Term>* out) {
  out->clear();
  out->reserve(mu.num_source_vars());
  for (int v = 0; v < mu.num_source_vars(); ++v) {
    if (!mu.IsBound(v)) return false;
    out->push_back(mu.Get(v));
  }
  return true;
}

void RecordMapping(ContainmentWitness* witness, const VarMap& mu) {
  if (witness == nullptr) return;
  std::vector<Term> flat;
  if (FlattenMapping(mu, &flat)) witness->mappings.push_back(std::move(flat));
}

/// The uncached containment decision on preprocessed inputs.
Result<bool> DecideContainment(EngineContext& ctx, const Query& q2p,
                               const Query& q1p, bool fast_path,
                               ContainmentWitness* witness) {
  if (fast_path) {
    // Theorem 2.3 (and its RSI mirror): Q2 contained in Q1 iff some single
    // containment mapping mu has beta2 => mu(beta1).
    bool found = false;
    Status inner = Status::OK();
    EnumerationOutcome outcome =
        ForEachHomomorphism(ctx, q1p, q2p, [&](const VarMap& mu) {
          std::vector<Comparison> image =
              mu.ApplyToComparisons(q1p.comparisons());
          if (!SanitizeImage(&image)) return true;  // dead disjunct
          Result<bool> implied =
              ImpliesConjunction(ctx, q2p.comparisons(), image);
          if (!implied.ok()) {
            inner = implied.status();
            return false;
          }
          if (implied.value()) {
            found = true;
            RecordMapping(witness, mu);
            return false;
          }
          return true;
        });
    CQAC_RETURN_IF_ERROR(inner);
    if (found) {
      if (witness != nullptr) witness->single_mapping = true;
      return true;
    }
    if (outcome == EnumerationOutcome::kBudgetExhausted)
      return Status::ResourceExhausted(
          "single-mapping containment search exceeded the budget");
    return false;
  }

  // General path (Theorem 2.1): collect every containment mapping's image
  // and test the disjunction implication.
  std::vector<std::vector<Comparison>> disjuncts;
  bool trivially_contained = false;
  EnumerationOutcome outcome =
      ForEachHomomorphism(ctx, q1p, q2p, [&](const VarMap& mu) {
        std::vector<Comparison> image =
            mu.ApplyToComparisons(q1p.comparisons());
        if (!SanitizeImage(&image)) return true;
        if (image.empty()) {
          trivially_contained = true;  // a mapping that needs no comparisons
          if (witness != nullptr) {
            witness->mappings.clear();
            RecordMapping(witness, mu);
            witness->single_mapping = true;
          }
          return false;
        }
        if (std::find(disjuncts.begin(), disjuncts.end(), image) ==
            disjuncts.end()) {
          disjuncts.push_back(std::move(image));
          RecordMapping(witness, mu);
        }
        return true;
      });
  if (trivially_contained) return true;
  if (outcome == EnumerationOutcome::kBudgetExhausted)
    return Status::ResourceExhausted(
        "containment-mapping enumeration exceeded the budget");
  if (disjuncts.empty()) return false;
  return ImpliesDisjunction(ctx, q2p.comparisons(), disjuncts);
}

}  // namespace

Result<bool> IsContained(EngineContext& ctx, const Query& q2, const Query& q1,
                         const ContainmentOptions& options,
                         ContainmentWitness* witness) {
  ++ctx.stats().containment_calls;
  if (witness != nullptr) *witness = ContainmentWitness{};
  if (q2.head().args.size() != q1.head().args.size())
    return Status::InvalidArgument(
        "containment between queries of different head arity");

  bool q2_inconsistent = false, q1_inconsistent = false;
  CQAC_ASSIGN_OR_RETURN(Query q2p, PreprocessOrFlag(q2, &q2_inconsistent));
  if (q2_inconsistent) {
    if (witness != nullptr) {
      witness->contained = q2;
      witness->container = q1;
      witness->contained_inconsistent = true;
    }
    return true;  // the empty query is contained anywhere
  }
  CQAC_ASSIGN_OR_RETURN(Query q1p, PreprocessOrFlag(q1, &q1_inconsistent));
  if (q1_inconsistent) return false;  // nothing nonempty fits in the empty one

  AcClass q1_class = q1p.Classify();
  bool fast_path = options.use_single_mapping_fast_path &&
                   (q1_class == AcClass::kNone || q1_class == AcClass::kLsi ||
                    q1_class == AcClass::kRsi);

  // Memoized on the canonical pair: containment is invariant under renaming
  // either query independently, which is exactly what interning quotients
  // away. Preprocessing happened above, so comparison-implied equalities
  // cannot split canonical classes. A witness request bypasses the cache:
  // the mappings must actually be recomputed.
  std::string key;
  if (ctx.caching_enabled() && witness == nullptr) {
    InternedQuery i2 = ctx.Intern(q2p);
    InternedQuery i1 = ctx.Intern(q1p);
    key = EngineContext::MakeContainmentKey(i2, i1, fast_path);
    if (std::optional<bool> hit = ctx.CacheLookup(key)) {
      ++ctx.stats().containment_cache_hits;
      return *hit;
    }
    ++ctx.stats().containment_cache_misses;
  }

  if (witness != nullptr) {
    witness->contained = q2p;
    witness->container = q1p;
  }
  Result<bool> r = DecideContainment(ctx, q2p, q1p, fast_path, witness);
  if (r.ok() && ctx.caching_enabled() && witness == nullptr)
    ctx.CacheStore(key, r.value());
  return r;
}

Result<bool> IsEquivalent(EngineContext& ctx, const Query& q1, const Query& q2,
                          const ContainmentOptions& options) {
  CQAC_ASSIGN_OR_RETURN(bool a, IsContained(ctx, q1, q2, options));
  if (!a) return false;
  return IsContained(ctx, q2, q1, options);
}

namespace {

/// Assigns an exact rational value to every rank of a preorder such that the
/// values are strictly increasing and every rank containing a numeric
/// constant gets that constant's value.
std::vector<Rational> RankValues(const PreorderView& view) {
  const int n = view.num_ranks();
  std::vector<std::optional<Rational>> fixed(n);
  for (int r = 0; r < n; ++r)
    for (const Term& t : view.GroupAt(r))
      if (t.is_const() && t.value().is_number())
        fixed[r] = t.value().number();

  std::vector<Rational> vals(n, Rational(0));
  int i = 0;
  while (i < n) {
    if (fixed[i].has_value()) {
      vals[i] = *fixed[i];
      ++i;
      continue;
    }
    // Run [i, j) of unfixed ranks; bounded by fixed values on either side
    // (if any).
    int j = i;
    while (j < n && !fixed[j].has_value()) ++j;
    const int k = j - i;
    if (i == 0 && j == n) {
      for (int t = 0; t < k; ++t) vals[i + t] = Rational(t);
    } else if (i == 0) {
      for (int t = 0; t < k; ++t)
        vals[i + t] = *fixed[j] - Rational(k - t);
    } else if (j == n) {
      for (int t = 0; t < k; ++t)
        vals[i + t] = vals[i - 1] + Rational(t + 1);
    } else {
      const Rational lo = vals[i - 1];
      const Rational hi = *fixed[j];
      for (int t = 0; t < k; ++t)
        vals[i + t] = lo + (hi - lo) * Rational(t + 1, k + 1);
    }
    i = j;
  }
  return vals;
}

/// Builds the canonical database of `q` under the preorder: every variable
/// is assigned its rank value, and each body atom becomes a fact. Returns
/// the assigned head tuple through *head.
Result<Database> CanonicalDatabase(const Query& q, const PreorderView& view,
                                   const std::vector<Rational>& vals,
                                   Tuple* head) {
  auto assign = [&](const Term& t) -> Value {
    if (t.is_const()) return t.value();
    int r = view.RankOf(t);
    // Variables outside any comparison were still enumerated (callers pass
    // every variable of q), so r >= 0 always.
    return Value(vals[r]);
  };
  Database db;
  for (const Atom& a : q.body()) {
    Tuple t;
    for (const Term& arg : a.args) t.push_back(assign(arg));
    CQAC_RETURN_IF_ERROR(db.Insert(a.predicate, std::move(t)));
  }
  head->clear();
  for (const Term& arg : q.head().args) head->push_back(assign(arg));
  return db;
}

/// Shared engine for the canonical-database procedures: enumerates q2's
/// consistent preorders and requires `accept(db, head)` on each. When
/// `budget` is non-null, its deadline is checked per canonical database.
Result<bool> ForAllCanonicalDatabases(
    const Query& q2, const std::vector<Rational>& extra_constants,
    const Budget* budget,
    FunctionRef<Result<bool>(const Database&, const Tuple&)> accept) {
  bool inconsistent = false;
  CQAC_ASSIGN_OR_RETURN(Query q2p, PreprocessOrFlag(q2, &inconsistent));
  if (inconsistent) return true;
  CQAC_RETURN_IF_ERROR(q2p.Validate());

  std::set<int> vars = q2p.BodyVars();
  std::vector<Rational> constants = q2p.ComparisonConstants();
  for (const Rational& c : extra_constants)
    if (std::find(constants.begin(), constants.end(), c) == constants.end())
      constants.push_back(c);
  // Numeric constants inside ordinary subgoals also participate in the
  // order (they may join/compare in q1).
  for (const Atom& a : q2p.body())
    for (const Term& t : a.args)
      if (t.is_const() && t.value().is_number() &&
          std::find(constants.begin(), constants.end(),
                    t.value().number()) == constants.end())
        constants.push_back(t.value().number());

  Status inner = Status::OK();
  bool all_ok = ForEachConsistentPreorder(
      vars, constants, q2p.comparisons(), [&](const PreorderView& view) {
        if (budget != nullptr) {
          inner = budget->CheckDeadline("canonical-database enumeration");
          if (!inner.ok()) return false;
        }
        std::vector<Rational> vals = RankValues(view);
        Tuple head;
        Result<Database> db = CanonicalDatabase(q2p, view, vals, &head);
        if (!db.ok()) {
          inner = db.status();
          return false;
        }
        Result<bool> ok = accept(db.value(), head);
        if (!ok.ok()) {
          inner = ok.status();
          return false;
        }
        return ok.value();  // a failing database aborts: not contained
      });
  CQAC_RETURN_IF_ERROR(inner);
  return all_ok;
}

/// Numeric constants from both comparisons and ordinary subgoals: a body
/// constant of the containing query joins against canonical values, so it
/// must be a possible rank.
std::vector<Rational> AllNumericConstants(const Query& q) {
  std::vector<Rational> out = q.ComparisonConstants();
  for (const Atom& a : q.body())
    for (const Term& t : a.args)
      if (t.is_const() && t.value().is_number() &&
          std::find(out.begin(), out.end(), t.value().number()) == out.end())
        out.push_back(t.value().number());
  return out;
}

}  // namespace

Result<bool> IsContainedByCanonicalDatabases(const Query& q2,
                                             const Query& q1) {
  if (q2.head().args.size() != q1.head().args.size())
    return Status::InvalidArgument(
        "containment between queries of different head arity");
  bool q1_inconsistent = false;
  CQAC_ASSIGN_OR_RETURN(Query q1p, PreprocessOrFlag(q1, &q1_inconsistent));
  std::vector<Rational> q1_constants =
      q1_inconsistent ? std::vector<Rational>{} : AllNumericConstants(q1p);

  return ForAllCanonicalDatabases(
      q2, q1_constants, nullptr,
      [&](const Database& db, const Tuple& head) -> Result<bool> {
        if (q1_inconsistent) return false;
        return QueryYieldsTuple(q1p, db, head);
      });
}

Result<bool> IsContainedInUnion(EngineContext& ctx, const Query& q,
                                const UnionQuery& u) {
  // Sagiv-Yannakakis fast path: for comparison-free inputs, containment in
  // a union holds iff containment in some single disjunct. (False once
  // comparisons are present — see the X<3 / X>1 example in the tests.)
  bool all_cq = q.IsConjunctiveOnly();
  for (const Query& d : u.disjuncts)
    if (!d.IsConjunctiveOnly()) all_cq = false;
  if (all_cq) {
    for (const Query& d : u.disjuncts)
      if (d.head().args.size() != q.head().args.size())
        return Status::InvalidArgument(
            "union containment between queries of different head arity");
    // First containing disjunct (in union order) decides; a hit cancels
    // the siblings since the disjunction is settled.
    ParallelOutcomes<Result<bool>> outcomes(
        ctx, u.disjuncts.size(),
        [&](size_t i) { return IsContained(ctx, q, u.disjuncts[i]); },
        [](const Result<bool>& r) { return !r.ok() || r.value(); });
    for (size_t i = 0; i < u.disjuncts.size(); ++i) {
      Result<bool>& r = outcomes.Get(i);
      if (!r.ok()) return r.status();
      if (r.value()) return true;
    }
    return false;
  }

  std::vector<Rational> constants;
  std::vector<Query> prepped;
  for (const Query& d : u.disjuncts) {
    if (d.head().args.size() != q.head().args.size())
      return Status::InvalidArgument(
          "union containment between queries of different head arity");
    bool inconsistent = false;
    CQAC_ASSIGN_OR_RETURN(Query dp, PreprocessOrFlag(d, &inconsistent));
    if (inconsistent) continue;
    for (const Rational& c : AllNumericConstants(dp)) constants.push_back(c);
    prepped.push_back(std::move(dp));
  }

  // The preorder enumeration is inherently serial (each canonical database
  // extends the previous prefix), but checking a database against the
  // disjuncts is independent work. Batch databases and fan each batch out;
  // with no pool the batch size is 1, which reproduces today's serial
  // check-after-every-database behaviour exactly.
  const bool fan_out =
      ctx.parallelism() > 0 && !TaskPool::InPoolTask();
  const size_t batch_cap = fan_out ? 4 * (ctx.parallelism() + 1) : 1;
  std::vector<std::pair<Database, Tuple>> batch;

  // Returns false (or an error) exactly when the serial loop would have:
  // the first database in batch order that no disjunct covers decides.
  auto check_batch = [&]() -> Result<bool> {
    ParallelOutcomes<Result<bool>> outcomes(
        ctx, batch.size(),
        [&](size_t i) -> Result<bool> {
          for (const Query& d : prepped) {
            CQAC_ASSIGN_OR_RETURN(
                bool covered,
                QueryYieldsTuple(d, batch[i].first, batch[i].second,
                                 &ctx.stats()));
            if (covered) return true;
          }
          return false;
        },
        // An uncovered database decides the whole call, so treat it like an
        // error for cancellation purposes: siblings stop early.
        [](const Result<bool>& r) { return !r.ok() || !r.value(); });
    for (size_t i = 0; i < batch.size(); ++i) {
      Result<bool>& r = outcomes.Get(i);
      if (!r.ok()) return r.status();
      if (!r.value()) return false;
    }
    batch.clear();
    return true;
  };

  CQAC_ASSIGN_OR_RETURN(
      bool all_ok,
      ForAllCanonicalDatabases(
          q, constants, &ctx.budget(),
          [&](const Database& db, const Tuple& head) -> Result<bool> {
            batch.emplace_back(db, head);
            if (batch.size() < batch_cap) return true;  // keep enumerating
            return check_batch();
          }));
  if (!all_ok) return false;
  if (!batch.empty()) return check_batch();
  return true;
}

Result<bool> UnionIsContained(EngineContext& ctx, const UnionQuery& u,
                              const Query& q1,
                              const ContainmentOptions& options) {
  // Per-disjunct checks are independent; merge in disjunct order so the
  // first failing (or erroring) disjunct decides, exactly as the serial
  // loop did. A "not contained" outcome cancels siblings — it decides the
  // conjunction, so remaining work is wasted anyway.
  ParallelOutcomes<Result<bool>> outcomes(
      ctx, u.disjuncts.size(),
      [&](size_t i) { return IsContained(ctx, u.disjuncts[i], q1, options); },
      [](const Result<bool>& r) { return !r.ok() || !r.value(); });
  for (size_t i = 0; i < u.disjuncts.size(); ++i) {
    Result<bool>& r = outcomes.Get(i);
    if (!r.ok()) return r.status();
    if (!r.value()) return false;
  }
  return true;
}

Result<UnionQuery> MinimizeUnion(EngineContext& ctx, const UnionQuery& u,
                                 UnionMinimizationWitness* witness) {
  // Greedy: repeatedly try to drop one disjunct; a disjunct is droppable
  // when it is contained in the union of the remaining ones.
  std::vector<Query> kept = u.disjuncts;
  std::vector<size_t> kept_idx(kept.size());
  for (size_t i = 0; i < kept_idx.size(); ++i) kept_idx[i] = i;
  bool changed = true;
  while (changed && kept.size() > 1) {
    changed = false;
    for (size_t i = 0; i < kept.size(); ++i) {
      UnionQuery rest;
      for (size_t j = 0; j < kept.size(); ++j)
        if (j != i) rest.disjuncts.push_back(kept[j]);
      CQAC_ASSIGN_OR_RETURN(bool covered,
                            IsContainedInUnion(ctx, kept[i], rest));
      if (covered) {
        kept.erase(kept.begin() + i);
        kept_idx.erase(kept_idx.begin() + i);
        changed = true;
        break;
      }
    }
  }
  UnionQuery out;
  out.disjuncts = kept;
  if (witness != nullptr) {
    witness->original = u;
    witness->minimized = out;
    witness->kept = kept_idx;
    witness->dropped.clear();
    for (size_t i = 0, k = 0; i < u.disjuncts.size(); ++i) {
      if (k < kept_idx.size() && kept_idx[k] == i)
        ++k;
      else
        witness->dropped.push_back(i);
    }
  }
  return out;
}

}  // namespace cqac
