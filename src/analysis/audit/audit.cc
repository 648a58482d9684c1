#include "src/analysis/audit/audit.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <utility>

#include "src/analysis/certificate.h"
#include "src/base/function_ref.h"
#include "src/base/strings.h"
#include "src/constraints/preprocess.h"
#include "src/eval/evaluate.h"
#include "src/ir/canonical.h"
#include "src/ir/expansion.h"
#include "src/ir/json.h"
#include "src/rewriting/answer.h"
#include "src/rewriting/er_search.h"
#include "src/rewriting/witness.h"

namespace cqac {
namespace audit {
namespace {

/// The shared rejection prefix (same convention as src/analysis/
/// certificate.cc) so callers can grep one string for any rejected
/// certificate.
template <typename... Parts>
Status Invalid(const Parts&... parts) {
  return Status::InvalidArgument(StrCat("certificate rejected: ", parts...));
}

/// Re-derives one comparison's kind from its structure alone (no Comparison
/// helper methods — the point is an independent derivation).
CompKind DeriveKind(const Comparison& c) {
  if (c.op == CompOp::kEq) return CompKind::kEquality;
  const bool lhs_num = c.lhs.is_const() && c.lhs.value().is_number();
  const bool rhs_num = c.rhs.is_const() && c.rhs.value().is_number();
  if (c.lhs.is_var() && rhs_num) return CompKind::kLsi;
  if (lhs_num && c.rhs.is_var()) return CompKind::kRsi;
  if (c.lhs.is_var() && c.rhs.is_var()) return CompKind::kVarVar;
  return CompKind::kOther;
}

/// Re-derives the class from the kinds via the lattice rules.
AcClass DeriveClass(const std::vector<CompKind>& kinds) {
  if (kinds.empty()) return AcClass::kNone;
  bool all_lsi = true, all_rsi = true;
  for (CompKind k : kinds) {
    if (k != CompKind::kLsi && k != CompKind::kRsi) return AcClass::kGeneral;
    if (k != CompKind::kLsi) all_lsi = false;
    if (k != CompKind::kRsi) all_rsi = false;
  }
  if (all_lsi) return AcClass::kLsi;
  if (all_rsi) return AcClass::kRsi;
  return AcClass::kSi;
}

/// Counts the satisfying body-variable assignments of `view` over `db` that
/// project onto head tuple `t` — a naive backtracking counter, independent
/// of the batch join engine and of the IVM delta algebra. Unsupported when
/// a comparison references a variable no body atom binds.
Result<int64_t> CountDerivations(const Query& view, const Database& db,
                                 const Tuple& t) {
  if (view.head().args.size() != t.size())
    return Status::InvalidArgument("tuple arity does not match the view head");
  std::map<int, Value> binding;
  for (size_t i = 0; i < t.size(); ++i) {
    const Term& h = view.head().args[i];
    if (h.is_const()) {
      if (h.value() != t[i]) return 0;
      continue;
    }
    auto it = binding.find(h.var());
    if (it == binding.end())
      binding.emplace(h.var(), t[i]);
    else if (it->second != t[i])
      return 0;
  }

  std::set<int> body_vars = view.BodyVars();
  for (const Comparison& c : view.comparisons())
    for (const Term* term : {&c.lhs, &c.rhs})
      if (term->is_var() && !body_vars.count(term->var()) &&
          !binding.count(term->var()))
        return Status::Unsupported(
            "comparison variable bound by no body atom");

  int64_t count = 0;
  Status bad = Status::OK();
  // Recurse over body atoms; the tuple chosen for an atom is forced by the
  // final assignment, so leaves biject with satisfying assignments.
  auto recurse = [&](auto&& self, size_t atom_index) -> void {
    if (!bad.ok()) return;
    if (atom_index == view.body().size()) {
      for (const Comparison& c : view.comparisons()) {
        auto resolve = [&](const Term& term) -> const Value* {
          if (term.is_const()) return &term.value();
          auto it = binding.find(term.var());
          return it == binding.end() ? nullptr : &it->second;
        };
        const Value* l = resolve(c.lhs);
        const Value* r = resolve(c.rhs);
        if (l == nullptr || r == nullptr) {
          bad = Status::Unsupported("unbound comparison variable");
          return;
        }
        if (!EvaluateGroundComparison(*l, c.op, *r)) return;
      }
      ++count;
      return;
    }
    const Atom& atom = view.body()[atom_index];
    for (const Tuple& cand : db.Get(atom.predicate)) {
      if (cand.size() != atom.args.size()) continue;
      std::vector<int> bound_here;
      bool match = true;
      for (size_t i = 0; i < cand.size() && match; ++i) {
        const Term& term = atom.args[i];
        if (term.is_const()) {
          match = term.value() == cand[i];
          continue;
        }
        auto it = binding.find(term.var());
        if (it == binding.end()) {
          binding.emplace(term.var(), cand[i]);
          bound_here.push_back(term.var());
        } else {
          match = it->second == cand[i];
        }
      }
      if (match) self(self, atom_index + 1);
      for (int v : bound_here) binding.erase(v);
    }
  };
  recurse(recurse, 0);
  CQAC_RETURN_IF_ERROR(bad);
  return count;
}

/// The per-tuple and summary checks of CheckMaintenance: every touched
/// tuple's post-count is re-derived by CountDerivations over `post_base`,
/// and its presence in `post_views` must agree with that count.
Status CheckDeltasAndSummary(
    EngineContext& ctx, const ivm::MaintenanceCertificate& cert,
    const std::map<std::string, const Query*>& by_pred,
    const Database& post_base, const Database& post_views) {
  size_t net_added = 0, net_removed = 0, replayed = 0;
  for (const ivm::ViewDelta& vd : cert.views) {
    for (size_t i = 0; i < vd.deltas.size(); ++i) {
      const ivm::TupleCountDelta& d = vd.deltas[i];
      if (i > 0 && !(vd.deltas[i - 1].tuple < d.tuple))
        return Invalid("touched tuples of '", vd.predicate,
                       "' are not in ascending order");
      if (d.old_count == d.new_count)
        return Invalid("touched tuple ", TupleToString(d.tuple), " of '",
                       vd.predicate, "' has no count transition");
      if (d.old_count < 0 || d.new_count < 0)
        return Invalid("negative derivation count on ",
                       TupleToString(d.tuple), " of '", vd.predicate, "'");
      CQAC_ASSIGN_OR_RETURN(
          int64_t truth,
          CountDerivations(*by_pred.at(vd.predicate), post_base, d.tuple));
      if (truth != d.new_count)
        return Invalid("post-count of ", TupleToString(d.tuple), " in '",
                       vd.predicate, "' is ", d.new_count,
                       " but the independent re-derivation counts ", truth);
      if ((d.new_count > 0) != post_views.Contains(vd.predicate, d.tuple))
        return Invalid("presence of ", TupleToString(d.tuple), " in '",
                       vd.predicate,
                       "' disagrees with its claimed post-count");
      if (d.old_count == 0) ++net_added;
      if (d.new_count == 0) ++net_removed;
      ++replayed;
    }
  }
  ctx.stats().audit_replayed_tuples += replayed;

  const ivm::ApplySummary& s = cert.summary;
  if (s.inserted == 0 || s.retracted == 0) {
    // Single-sided batch: the touched set accounts for the summary exactly.
    if (net_added != s.view_tuples_added || net_removed != s.view_tuples_removed)
      return Invalid("summary says ", s.view_tuples_added, " added / ",
                     s.view_tuples_removed, " removed view tuples but the "
                     "touched set shows ", net_added, " / ", net_removed);
  } else {
    // Mixed batch: a tuple removed by the retract phase and re-added by the
    // insert phase appears in both summary counters but nets out of the
    // touched set, so only the net and the bounds are checkable.
    if (net_added > s.view_tuples_added || net_removed > s.view_tuples_removed)
      return Invalid("touched set shows more view-tuple changes (",
                     net_added, " added / ", net_removed,
                     " removed) than the summary admits");
    const int64_t net_summary =
        static_cast<int64_t>(s.view_tuples_added) -
        static_cast<int64_t>(s.view_tuples_removed);
    const int64_t net_touched = static_cast<int64_t>(net_added) -
                                static_cast<int64_t>(net_removed);
    if (net_summary != net_touched)
      return Invalid("summary nets ", net_summary,
                     " view tuples but the touched set nets ", net_touched);
  }
  return Status::OK();
}

}  // namespace

const char* ObligationKindName(ObligationKind k) {
  switch (k) {
    case ObligationKind::kClassification:
      return "classification";
    case ObligationKind::kRewrite:
      return "rewrite";
    case ObligationKind::kEquivalentRewriting:
      return "equivalent-rewriting";
    case ObligationKind::kSiMcrRules:
      return "si-mcr-rules";
    case ObligationKind::kSiMcrUnfold:
      return "si-mcr-unfold";
    case ObligationKind::kMinimizeQuery:
      return "minimize-query";
    case ObligationKind::kMinimizeUnion:
      return "minimize-union";
    case ObligationKind::kIvmCommit:
      return "ivm-commit";
    case ObligationKind::kEval:
      return "eval";
  }
  return "?";
}

bool AuditReport::ok() const { return failures() == 0; }

size_t AuditReport::failures() const {
  size_t n = 0;
  for (const Obligation& o : obligations)
    if (o.failed()) ++n;
  return n;
}

size_t AuditReport::skipped() const {
  size_t n = 0;
  for (const Obligation& o : obligations)
    if (o.skipped()) ++n;
  return n;
}

const Obligation* AuditReport::FirstFailure() const {
  for (const Obligation& o : obligations)
    if (o.failed()) return &o;
  return nullptr;
}

int AuditReport::ExitCode() const {
  const Obligation* f = FirstFailure();
  return f == nullptr ? 0 : static_cast<int>(f->kind);
}

std::string AuditReport::ToString() const {
  std::string out;
  for (const Obligation& o : obligations) {
    const char* verdict = o.status.ok() ? "ok  " : o.skipped() ? "skip" : "FAIL";
    out += StrCat("[", verdict, "] ", ObligationKindName(o.kind), " ", o.label);
    if (!o.status.ok()) out += StrCat(": ", o.status.message());
    out += "\n";
  }
  out += StrCat(obligations.size(), " obligations, ", failures(),
                " failed, ", skipped(), " skipped\n");
  return out;
}

std::string AuditReport::ToJson() const {
  std::string out = "{\"obligations\":[";
  for (size_t i = 0; i < obligations.size(); ++i) {
    const Obligation& o = obligations[i];
    if (i > 0) out += ",";
    out += StrCat("{\"kind\":\"", ObligationKindName(o.kind),
                  "\",\"code\":", static_cast<int>(o.kind), ",\"label\":",
                  JsonQuote(o.label), ",\"verdict\":\"",
                  o.status.ok() ? "certified" : o.skipped() ? "skipped"
                                                            : "rejected",
                  "\"");
    if (!o.status.ok())
      out += StrCat(",\"message\":", JsonQuote(o.status.message()));
    out += "}";
  }
  out += StrCat("],\"failures\":", failures(), ",\"skipped\":", skipped(),
                ",\"exit_code\":", ExitCode(), "}");
  return out;
}

Status CheckClassification(const Query& q, const ClassificationEvidence& ev) {
  const std::vector<Comparison>& comps = q.comparisons();
  if (ev.kinds.size() != comps.size())
    return Invalid("evidence lists ", ev.kinds.size(), " comparisons, query has ",
                   comps.size());
  std::vector<CompKind> kinds;
  kinds.reserve(comps.size());
  for (const Comparison& c : comps) kinds.push_back(DeriveKind(c));
  for (size_t i = 0; i < kinds.size(); ++i)
    if (kinds[i] != ev.kinds[i])
      return Invalid("comparison #", i, " is ", CompKindName(kinds[i]),
                     " but the evidence claims ", CompKindName(ev.kinds[i]));

  const AcClass cls = DeriveClass(kinds);
  if (cls != ev.info.ac_class)
    return Invalid("the kinds derive class ", AcClassName(cls),
                   " but the evidence claims ", AcClassName(ev.info.ac_class));

  size_t lsi = 0, rsi = 0;
  bool all_si = true;
  for (CompKind k : kinds) {
    if (k == CompKind::kLsi)
      ++lsi;
    else if (k == CompKind::kRsi)
      ++rsi;
    else
      all_si = false;
  }
  const bool cqac_si = all_si && (lsi <= 1 || rsi <= 1);
  if (cqac_si != ev.info.cqac_si)
    return Invalid("the kinds derive cqac_si=", cqac_si ? "true" : "false",
                   " but the evidence claims the opposite");

  bool any_ordered = false, all_strict = true, all_nonstrict = true;
  for (const Comparison& c : comps) {
    if (c.op == CompOp::kEq) continue;
    any_ordered = true;
    (c.op == CompOp::kLt ? all_nonstrict : all_strict) = false;
  }
  if (ev.info.closed != (any_ordered && all_nonstrict) ||
      ev.info.open != (any_ordered && all_strict))
    return Invalid("closed/open flags disagree with the comparison operators");

  // The deciding indices must justify the class per the documented
  // convention (classify.h).
  std::vector<size_t> want;
  switch (cls) {
    case AcClass::kNone:
      break;
    case AcClass::kLsi:
    case AcClass::kRsi:
      for (size_t i = 0; i < kinds.size(); ++i) want.push_back(i);
      break;
    case AcClass::kSi:
      for (CompKind target : {CompKind::kLsi, CompKind::kRsi})
        for (size_t i = 0; i < kinds.size(); ++i)
          if (kinds[i] == target) {
            want.push_back(i);
            break;
          }
      break;
    case AcClass::kGeneral:
      for (size_t i = 0; i < kinds.size(); ++i)
        if (kinds[i] != CompKind::kLsi && kinds[i] != CompKind::kRsi) {
          want.push_back(i);
          break;
        }
      break;
  }
  if (want != ev.deciding)
    return Invalid("the deciding comparison indices do not justify class ",
                   AcClassName(cls));
  return Status::OK();
}

Status CheckMinimization(EngineContext& ctx, const MinimizationWitness& w) {
  (void)ctx;
  if (w.minimized.body().size() > w.original.body().size())
    return Invalid("the minimized query has more subgoals than its input");

  // Both homomorphism witnesses must be genuine and must really connect
  // the claimed pair (compared up to renaming via canonical forms).
  CQAC_RETURN_IF_ERROR(CheckContainmentWitness(w.forward));
  CQAC_RETURN_IF_ERROR(CheckContainmentWitness(w.backward));
  CQAC_ASSIGN_OR_RETURN(Query orig_pp, Preprocess(w.original));
  CQAC_ASSIGN_OR_RETURN(Query min_pp, Preprocess(w.minimized));
  const std::string orig_text = Canonicalize(orig_pp).text;
  const std::string min_text = Canonicalize(min_pp).text;
  if (Canonicalize(w.forward.contained).text != orig_text ||
      Canonicalize(w.forward.container).text != min_text)
    return Invalid("the forward witness does not connect the original to "
                   "the minimized query");
  if (Canonicalize(w.backward.contained).text != min_text ||
      Canonicalize(w.backward.container).text != orig_text)
    return Invalid("the backward witness does not connect the minimized "
                   "query to the original");

  // Cross-check the equivalence with the from-scratch canonical-database
  // procedure, independent of the homomorphism witnesses entirely.
  CQAC_ASSIGN_OR_RETURN(bool fwd,
                        IsContainedByCanonicalDatabases(orig_pp, min_pp));
  if (!fwd)
    return Invalid("canonical databases refute original ⊆ minimized");
  CQAC_ASSIGN_OR_RETURN(bool bwd,
                        IsContainedByCanonicalDatabases(min_pp, orig_pp));
  if (!bwd)
    return Invalid("canonical databases refute minimized ⊆ original");
  return Status::OK();
}

Status CheckUnionMinimization(EngineContext& ctx,
                              const UnionMinimizationWitness& w) {
  const size_t n = w.original.disjuncts.size();
  std::vector<bool> seen(n, false);
  for (const std::vector<size_t>* part : {&w.kept, &w.dropped}) {
    for (size_t i = 0; i < part->size(); ++i) {
      const size_t idx = (*part)[i];
      if (idx >= n) return Invalid("witness index ", idx, " out of range");
      if (seen[idx])
        return Invalid("witness index ", idx, " appears twice");
      seen[idx] = true;
      if (i > 0 && (*part)[i - 1] >= idx)
        return Invalid("witness indices are not ascending");
    }
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end())
    return Invalid("kept and dropped do not partition the original union");

  if (w.minimized.disjuncts.size() != w.kept.size())
    return Invalid("the minimized union has ", w.minimized.disjuncts.size(),
                   " disjuncts but the witness keeps ", w.kept.size());
  for (size_t i = 0; i < w.kept.size(); ++i)
    if (w.minimized.disjuncts[i].ToString() !=
        w.original.disjuncts[w.kept[i]].ToString())
      return Invalid("kept disjunct #", i,
                     " is not original disjunct #", w.kept[i]);

  // Transitive coverage: every dropped disjunct is contained in the union
  // of the FINAL kept set (decided fresh, not replayed from the greedy
  // pass's intermediate unions).
  for (size_t idx : w.dropped) {
    CQAC_ASSIGN_OR_RETURN(
        bool covered,
        IsContainedInUnion(ctx, w.original.disjuncts[idx], w.minimized));
    if (!covered)
      return Invalid("dropped disjunct #", idx,
                     " is not contained in the kept union");
  }
  return Status::OK();
}

Status CheckSiMcrUnfolding(EngineContext& ctx, const Query& q,
                           const ViewSet& views, const SiMcr& mcr,
                           const UnfoldOptions& options) {
  Result<UnfoldResult> unfolded = UnfoldSiMcr(ctx, mcr, options);
  if (!unfolded.ok()) {
    if (unfolded.status().code() == StatusCode::kResourceExhausted)
      return Status::Unsupported(
          StrCat("unfolding budget exhausted: ", unfolded.status().message()));
    return unfolded.status();
  }
  bool q_inconsistent = false;
  Result<Query> q_pp = Preprocess(q);
  if (!q_pp.ok()) {
    if (q_pp.status().code() != StatusCode::kInconsistent)
      return q_pp.status();
    q_inconsistent = true;
  }
  for (size_t i = 0; i < unfolded.value().unfolding.disjuncts.size(); ++i) {
    const Query& d = unfolded.value().unfolding.disjuncts[i];
    if (q_inconsistent)
      return Invalid("the query is inconsistent but the MCR unfolds to a "
                     "nonempty disjunct");
    CQAC_ASSIGN_OR_RETURN(Query exp, ExpandRewriting(d, views));
    // The canonical-database check enumerates total preorders over the
    // expansion's variables and constants; past a handful of values the
    // obligation is honestly skipped rather than attempted.
    std::set<int> order_vars;
    std::set<Value> order_consts;
    auto note = [&](const Term& t) {
      if (t.is_var())
        order_vars.insert(t.var());
      else
        order_consts.insert(t.value());
    };
    for (const Term& t : exp.head().args) note(t);
    for (const Atom& a : exp.body())
      for (const Term& t : a.args) note(t);
    for (const Comparison& c : exp.comparisons()) {
      note(c.lhs);
      note(c.rhs);
    }
    size_t order_values = order_vars.size() + order_consts.size();
    if (order_values > options.max_containment_values)
      return Status::Unsupported(
          StrCat("unfolded disjunct #", i, " orders ", order_values,
                 " values, over the certification budget of ",
                 options.max_containment_values));
    CQAC_ASSIGN_OR_RETURN(bool contained,
                          IsContainedByCanonicalDatabases(exp, q_pp.value()));
    if (!contained)
      return Invalid("unfolded disjunct #", i, " (", d.ToString(),
                     ") expands outside the query");
    ++ctx.stats().audit_unfold_disjuncts;
  }
  return Status::OK();
}

Status CheckMaintenance(EngineContext& ctx,
                        const std::vector<Query>& view_queries,
                        const ivm::MaintenanceCertificate& cert,
                        const Database& post_base,
                        const Database& post_views) {
  std::map<std::string, const Query*> by_pred;
  for (const Query& v : view_queries)
    by_pred[v.head().predicate] = &v;
  if (cert.views.size() != view_queries.size())
    return Invalid("certificate covers ", cert.views.size(),
                   " views, the maintainer holds ", view_queries.size());
  for (const ivm::ViewDelta& vd : cert.views)
    if (!by_pred.count(vd.predicate))
      return Invalid("certificate names unknown view '", vd.predicate, "'");

  CQAC_RETURN_IF_ERROR(
      CheckDeltasAndSummary(ctx, cert, by_pred, post_base, post_views));

  // Whole-state audit: every maintained view extension equals a from-scratch
  // reference evaluation over the post-commit base.
  for (const Query& v : view_queries) {
    CQAC_ASSIGN_OR_RETURN(Relation truth, EvaluateQueryReference(v, post_base));
    if (truth != post_views.Get(v.head().predicate))
      return Invalid("maintained extension of '", v.head().predicate,
                     "' differs from the reference evaluation");
  }
  return Status::OK();
}

namespace {

/// Every second tuple of `db`, used to drive a retract batch that leaves
/// the maintained state nonempty.
Database EveryOtherTuple(const Database& db) {
  Database out;
  size_t i = 0;
  for (const auto& [pred, rel] : db.relations())
    for (const Tuple& t : rel)
      if (i++ % 2 == 0) (void)out.Insert(pred, t);
  return out;
}

}  // namespace

void RecordObligation(EngineContext& ctx, AuditReport* report,
                      ObligationKind kind, std::string label,
                      FunctionRef<Status()> fn) {
  const auto t0 = std::chrono::steady_clock::now();
  Status s = fn();
  ctx.stats().audit_wall_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ++ctx.stats().audit_obligations;
  Obligation o;
  o.kind = kind;
  o.label = std::move(label);
  o.status = std::move(s);
  if (o.failed()) ++ctx.stats().audit_failures;
  report->obligations.push_back(std::move(o));
}

Status AuditAll(EngineContext& ctx, const AuditInputs& inputs,
                const UnfoldOptions& unfold, AuditReport* report) {
  const Query& q = inputs.query;
  const std::string& name = q.head().predicate;
  auto run = [&](ObligationKind kind, std::string label,
                 FunctionRef<Status()> fn) {
    RecordObligation(ctx, report, kind, std::move(label), fn);
  };

  run(ObligationKind::kClassification, name, [&] {
    return CheckClassification(q, ClassifyQueryWithEvidence(q));
  });

  UnionQuery rewriting;
  bool have_union = false;
  if (inputs.views.size() > 0) {
    // The same dispatch and runner the serve layer uses
    // (ChooseRewriteAlgorithm, RunRewriteAlgorithm), so the audited path is
    // the shipped path.
    const RewriteAlgorithm algorithm =
        ChooseRewriteAlgorithm(q, inputs.views);
    RewritingWitness w;
    Result<ViewPlan> r =
        RunRewriteAlgorithm(ctx, algorithm, q, inputs.views, &w);
    if (algorithm == RewriteAlgorithm::kSiDatalog) {
      if (!r.ok()) {
        run(ObligationKind::kSiMcrRules, name, [&] { return r.status(); });
      } else {
        const SiMcr& mcr = *r.value().datalog;
        run(ObligationKind::kSiMcrRules, name,
            [&] { return CheckSiMcr(q, inputs.views, mcr); });
        run(ObligationKind::kSiMcrUnfold, name, [&] {
          return CheckSiMcrUnfolding(ctx, q, inputs.views, mcr, unfold);
        });
      }
    } else if (!r.ok()) {
      run(ObligationKind::kRewrite, name, [&] { return r.status(); });
    } else {
      rewriting = std::move(r.value().union_plan);
      have_union = true;
      run(ObligationKind::kRewrite, name, [&] {
        return CheckRewritingWitness(q, inputs.views, rewriting, w);
      });
    }

    if (q.IsCqacSi() && inputs.views.AllVariablesDistinguished()) {
      ErWitness ew;
      Result<ErResult> er = FindEquivalentRewriting(ctx, q, inputs.views, &ew);
      if (er.ok() && er.value().found())
        run(ObligationKind::kEquivalentRewriting, name, [&] {
          return CheckErResult(q, inputs.views, er.value(), ew);
        });
    }

    if (have_union && !rewriting.disjuncts.empty()) {
      UnionMinimizationWitness uw;
      Result<UnionQuery> mu = MinimizeUnion(ctx, rewriting, &uw);
      run(ObligationKind::kMinimizeUnion, name, [&]() -> Status {
        CQAC_RETURN_IF_ERROR(mu.status());
        return CheckUnionMinimization(ctx, uw);
      });
    }
  }

  {
    MinimizationWitness mw;
    Result<Query> m = MinimizeQuery(ctx, q, &mw);
    run(ObligationKind::kMinimizeQuery, name, [&]() -> Status {
      if (!m.ok()) {
        // An inconsistent query denotes the empty relation; minimization is
        // not meaningful, which is a skip, not a failure.
        if (m.status().code() == StatusCode::kInconsistent)
          return Status::Unsupported("query is inconsistent");
        return m.status();
      }
      return CheckMinimization(ctx, mw);
    });
  }

  const bool have_facts = inputs.facts.TotalTuples() > 0;
  if (have_facts) {
    run(ObligationKind::kEval, name, [&]() -> Status {
      CQAC_ASSIGN_OR_RETURN(Relation fast, EvaluateQuery(ctx, q, inputs.facts));
      CQAC_ASSIGN_OR_RETURN(Relation ref,
                            EvaluateQueryReference(q, inputs.facts));
      if (fast != ref)
        return Invalid("the batch evaluator disagrees with the reference "
                       "evaluator on the given facts");
      return Status::OK();
    });
  }

  if (have_facts && inputs.views.size() > 0) {
    ivm::MaterializedViewSet mvs;
    Status setup = Status::OK();
    for (const Query& v : inputs.views.views()) {
      setup = mvs.AddView(ctx, v);
      if (!setup.ok()) break;
    }
    if (setup.ok()) {
      run(ObligationKind::kIvmCommit, StrCat(name, " insert"), [&]() -> Status {
        ivm::MaintenanceCertificate cert;
        CQAC_RETURN_IF_ERROR(
            mvs.ApplyInsert(ctx, inputs.facts, {}, &cert).status());
        return CheckMaintenance(ctx, mvs.view_queries(), cert, mvs.base(),
                                mvs.views());
      });
      run(ObligationKind::kIvmCommit, StrCat(name, " retract"), [&]() -> Status {
        ivm::MaintenanceCertificate cert;
        CQAC_RETURN_IF_ERROR(
            mvs.ApplyRetract(ctx, EveryOtherTuple(inputs.facts), {}, &cert)
                .status());
        return CheckMaintenance(ctx, mvs.view_queries(), cert, mvs.base(),
                                mvs.views());
      });
    }
  }
  return Status::OK();
}

}  // namespace audit
}  // namespace cqac
