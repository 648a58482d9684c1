#include "src/analysis/certificate.h"

#include <algorithm>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/containment/si_reduction.h"
#include "src/ir/canonical.h"
#include "src/ir/expansion.h"

namespace cqac {
namespace {

Status Invalid(std::string msg) {
  return Status::InvalidArgument(StrCat("certificate rejected: ", msg));
}

Term ApplyMapping(const std::vector<Term>& m, const Term& t) {
  return t.is_var() ? m[t.var()] : t;
}

/// Own, deliberately simple image simplification (independent of the
/// production SanitizeImage): evaluates ground comparisons, kills disjuncts
/// with ordered symbol comparisons or self-strict comparisons. Returns
/// false iff the disjunct is unsatisfiable.
bool SimplifyImage(std::vector<Comparison>* cs) {
  std::vector<Comparison> kept;
  for (const Comparison& c : *cs) {
    if (c.op == CompOp::kEq) {
      if (c.lhs == c.rhs) continue;
      if (c.lhs.is_const() && c.rhs.is_const()) {
        if (c.lhs.value() == c.rhs.value()) continue;
        return false;
      }
      kept.push_back(c);
      continue;
    }
    if ((c.lhs.is_const() && c.lhs.value().is_symbol()) ||
        (c.rhs.is_const() && c.rhs.value().is_symbol()))
      return false;  // symbols are unordered
    if (c.lhs.is_const() && c.rhs.is_const()) {
      const Rational& a = c.lhs.value().number();
      const Rational& b = c.rhs.value().number();
      bool holds = c.op == CompOp::kLt ? a < b : (a < b || a == b);
      if (!holds) return false;
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

bool HasSymbolicConstant(const std::vector<Comparison>& cs) {
  for (const Comparison& c : cs)
    if ((c.lhs.is_const() && c.lhs.value().is_symbol()) ||
        (c.rhs.is_const() && c.rhs.value().is_symbol()))
      return true;
  return false;
}

/// Distinct SI forms of a preprocessed query's comparisons (mirrors the
/// construction's FormsOf).
std::vector<SiForm> DistinctForms(const Query& q) {
  std::vector<SiForm> out;
  for (const Comparison& c : q.comparisons()) {
    if (!c.IsSemiInterval()) continue;
    SiForm f = SiFormOf(c);
    if (std::find(out.begin(), out.end(), f) == out.end()) out.push_back(f);
  }
  return out;
}

}  // namespace

Status CheckContainmentWitness(const ContainmentWitness& w) {
  if (w.contained_inconsistent) {
    if (AcsConsistent(w.contained.comparisons()))
      return Invalid(
          "witness claims the contained query is inconsistent, but its "
          "comparisons are satisfiable");
    return Status::OK();
  }
  if (w.mappings.empty())
    return Invalid("witness carries no containment mappings");
  if (w.single_mapping && w.mappings.size() != 1)
    return Invalid("single-mapping witness carries multiple mappings");
  if (w.contained.head().args.size() != w.container.head().args.size())
    return Invalid("witness queries have different head arities");

  std::vector<std::vector<Comparison>> disjuncts;
  for (size_t mi = 0; mi < w.mappings.size(); ++mi) {
    const std::vector<Term>& m = w.mappings[mi];
    if (m.size() != static_cast<size_t>(w.container.num_vars()))
      return Invalid(StrCat("mapping #", mi + 1,
                            " does not cover every container variable"));
    for (const Term& t : m)
      if (t.is_var() && t.var() >= w.contained.num_vars())
        return Invalid(StrCat("mapping #", mi + 1,
                              " refers to a variable outside the contained "
                              "query"));
    // Head: mu must send the container's head tuple onto the contained one.
    for (size_t k = 0; k < w.container.head().args.size(); ++k) {
      if (!(ApplyMapping(m, w.container.head().args[k]) ==
            w.contained.head().args[k]))
        return Invalid(StrCat("mapping #", mi + 1,
                              " does not preserve head position ", k + 1));
    }
    // Body: every mapped container subgoal must be a contained subgoal.
    for (const Atom& a : w.container.body()) {
      Atom image;
      image.predicate = a.predicate;
      for (const Term& t : a.args) image.args.push_back(ApplyMapping(m, t));
      bool found = false;
      for (const Atom& b : w.contained.body())
        if (b == image) found = true;
      if (!found)
        return Invalid(
            StrCat("mapping #", mi + 1, " sends subgoal ", a.predicate,
                   "(...) outside the contained query's body (not a "
                   "homomorphism)"));
    }
    // Comparison image.
    std::vector<Comparison> image;
    for (const Comparison& c : w.container.comparisons())
      image.push_back(Comparison(ApplyMapping(m, c.lhs), c.op,
                                 ApplyMapping(m, c.rhs)));
    if (!SimplifyImage(&image))
      return Invalid(StrCat("mapping #", mi + 1,
                            " has an unsatisfiable comparison image (the "
                            "production decision would never use it)"));
    if (image.empty()) return Status::OK();  // needs no comparisons at all
    disjuncts.push_back(std::move(image));
  }

  if (HasSymbolicConstant(w.contained.comparisons()))
    return Status::Unsupported(
        "cannot re-check a certificate whose premise compares symbolic "
        "constants");
  for (const std::vector<Comparison>& d : disjuncts)
    if (HasSymbolicConstant(d))
      return Status::Unsupported(
          "cannot re-check a certificate whose comparison images mention "
          "symbolic constants");

  CQAC_ASSIGN_OR_RETURN(
      bool implied,
      ImpliesDisjunctionByPreorders(w.contained.comparisons(), disjuncts));
  if (!implied)
    return Invalid(
        "the contained query's comparisons do not imply the disjunction of "
        "the mapped comparison images (Theorem 2.1 condition fails)");
  return Status::OK();
}

Status CheckRewritingWitness(const Query& q, const ViewSet& views,
                             const UnionQuery& rewriting,
                             const RewritingWitness& w) {
  // Recompute the preprocessed query.
  Result<Query> qp = Preprocess(q);
  if (!qp.ok()) {
    if (qp.status().code() != StatusCode::kInconsistent) return qp.status();
    if (!rewriting.disjuncts.empty())
      return Invalid(
          "the query is inconsistent (empty), yet the rewriting is "
          "non-empty");
    return Status::OK();
  }
  if (!(Canonicalize(qp.value()) == Canonicalize(w.query)))
    return Invalid(
        "witness query does not match the preprocessed input query");

  // Recompute the preprocessed view sequence the engines expand over.
  std::vector<Query> prepped;
  for (const Query& v : views.views()) {
    Result<Query> vp = Preprocess(v);
    if (!vp.ok()) {
      if (vp.status().code() == StatusCode::kInconsistent) continue;
      return vp.status();
    }
    prepped.push_back(std::move(vp).value());
  }
  if (prepped.size() != w.views.size())
    return Invalid("witness view set differs from the preprocessed views");
  for (size_t i = 0; i < prepped.size(); ++i)
    if (!(Canonicalize(prepped[i]) == Canonicalize(w.views[i])))
      return Invalid(StrCat("witness view #", i + 1,
                            " does not match the preprocessed input view"));
  ViewSet vs;
  for (const Query& v : w.views) CQAC_RETURN_IF_ERROR(vs.Add(v));

  if (rewriting.disjuncts.size() != w.disjuncts.size())
    return Invalid(StrCat("rewriting has ", rewriting.disjuncts.size(),
                          " disjuncts but the witness covers ",
                          w.disjuncts.size()));

  for (size_t i = 0; i < rewriting.disjuncts.size(); ++i) {
    const ContainmentWitness& cw = w.disjuncts[i];
    if (cw.contained_inconsistent)
      return Invalid(StrCat(
          "disjunct #", i + 1,
          " expands to an inconsistent query (engines must prune those)"));
    CQAC_ASSIGN_OR_RETURN(Query exp,
                          ExpandRewriting(rewriting.disjuncts[i], vs));
    Result<Query> expp = Preprocess(exp);
    if (!expp.ok()) {
      if (expp.status().code() == StatusCode::kInconsistent)
        return Invalid(StrCat("disjunct #", i + 1,
                              " expands to an inconsistent query"));
      return expp.status();
    }
    if (!(Canonicalize(expp.value()) == Canonicalize(cw.contained)))
      return Invalid(StrCat("disjunct #", i + 1,
                            ": witness 'contained' side is not the "
                            "recomputed expansion"));
    if (!(Canonicalize(cw.container) == Canonicalize(w.query)))
      return Invalid(StrCat("disjunct #", i + 1,
                            ": witness 'container' side is not the query"));
    Status st = CheckContainmentWitness(cw);
    if (!st.ok()) {
      if (st.code() == StatusCode::kInvalidArgument)
        return Invalid(StrCat("disjunct #", i + 1, ": ", st.message()));
      return st;
    }
  }
  return Status::OK();
}

Status CheckErResult(const Query& q, const ViewSet& views, const ErResult& er,
                     const ErWitness& w) {
  if (w.query_inconsistent) {
    Result<Query> qp = Preprocess(q);
    if (qp.ok() || qp.status().code() != StatusCode::kInconsistent)
      return Invalid(
          "witness claims the query is inconsistent, but preprocessing "
          "succeeds");
    if (!er.union_er.has_value() || !er.union_er->disjuncts.empty())
      return Invalid(
          "an inconsistent query's ER must be the empty union");
    return Status::OK();
  }
  CQAC_ASSIGN_OR_RETURN(Query qp, Preprocess(q));

  // Forward direction: every candidate CR really is a contained rewriting.
  CQAC_RETURN_IF_ERROR(CheckRewritingWitness(q, views, w.crs, w.forward));

  if (er.single.has_value()) {
    if (w.single_index < 0 ||
        w.single_index >= static_cast<int>(w.crs.disjuncts.size()))
      return Invalid("single-ER witness index out of range");
    if (er.single->ToString() != w.crs.disjuncts[w.single_index].ToString())
      return Invalid(
          "the returned single ER is not the witnessed candidate");
    // Back direction: query contained in the single CR's expansion.
    CQAC_ASSIGN_OR_RETURN(Query exp, ExpandRewriting(*er.single, views));
    Result<Query> expp = Preprocess(exp);
    if (!expp.ok()) {
      if (expp.status().code() == StatusCode::kInconsistent)
        return Invalid("the single ER expands to an inconsistent query");
      return expp.status();
    }
    if (w.back.contained_inconsistent)
      return Invalid(
          "back-containment witness claims an inconsistent query, but the "
          "query is consistent");
    if (!(Canonicalize(w.back.contained) == Canonicalize(qp)))
      return Invalid(
          "back-containment witness 'contained' side is not the query");
    if (!(Canonicalize(w.back.container) == Canonicalize(expp.value())))
      return Invalid(
          "back-containment witness 'container' side is not the ER's "
          "expansion");
    Status st = CheckContainmentWitness(w.back);
    if (!st.ok()) {
      if (st.code() == StatusCode::kInvalidArgument)
        return Invalid(StrCat("back direction: ", st.message()));
      return st;
    }
    return Status::OK();
  }

  if (er.union_er.has_value()) {
    if (er.union_er->disjuncts.size() != w.crs.disjuncts.size())
      return Invalid("union ER does not match the witnessed candidates");
    for (size_t i = 0; i < w.crs.disjuncts.size(); ++i)
      if (er.union_er->disjuncts[i].ToString() !=
          w.crs.disjuncts[i].ToString())
        return Invalid(StrCat("union ER disjunct #", i + 1,
                              " is not the witnessed candidate"));
    // Back direction, re-decided from scratch: the query contained in the
    // union of the expansions (canonical-database procedure). The checker is
    // independent of the engine run it certifies, so this re-check must not
    // read that run's decision memo: it gets a context of its own.
    UnionQuery expansions;
    for (const Query& cr : er.union_er->disjuncts) {
      CQAC_ASSIGN_OR_RETURN(Query exp, ExpandRewriting(cr, views));
      expansions.disjuncts.push_back(std::move(exp));
    }
    EngineContext recheck;
    CQAC_ASSIGN_OR_RETURN(bool covered,
                          IsContainedInUnion(recheck, qp, expansions));
    if (!covered)
      return Invalid(
          "the query is not contained in the union of the ER's expansions "
          "(canonical-database re-check fails)");
    return Status::OK();
  }

  return Status::OK();  // nothing found: nothing to certify
}

namespace {

/// Renders a term of `rule` for error messages without assuming shared
/// variable tables.
std::string RuleTermName(const Query& rule, const Term& t) {
  return rule.TermToString(t);
}

/// True iff `a` and `b` are the same atom under the name correspondence
/// between two queries sharing a variable-name convention.
bool SameAtomByName(const Query& qa, const Atom& a, const Query& qb,
                    const Atom& b) {
  if (a.predicate != b.predicate || a.args.size() != b.args.size())
    return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    const Term& ta = a.args[i];
    const Term& tb = b.args[i];
    if (ta.is_const() != tb.is_const()) return false;
    if (ta.is_const()) {
      if (!(ta.value() == tb.value())) return false;
    } else if (qa.VarName(ta.var()) != qb.VarName(tb.var())) {
      return false;
    }
  }
  return true;
}

Status CheckInverseRule(const datalog::EngineRule& er, const Query& view,
                        const std::vector<SiForm>& query_forms,
                        size_t rule_no) {
  const Rule& rule = er.rule;
  auto reject = [&](const std::string& why) {
    return Invalid(StrCat("inverse rule #", rule_no, " ('",
                          rule.head().predicate, "' head): ", why));
  };

  // Body: exactly the view's head atom (matched by variable name).
  if (rule.body().size() != 1)
    return reject("must have exactly one body atom (the view head)");
  if (!SameAtomByName(rule, rule.body()[0], view, view.head()))
    return reject(StrCat("body atom is not the head of view '",
                         view.head().predicate, "'"));

  // Map rule variables to view variables by name.
  auto view_var_of = [&](int rule_var) {
    return view.FindVariable(rule.VarName(rule_var));
  };

  const std::string& pred = rule.head().predicate;
  if (pred.rfind("U_", 0) == 0) {
    // A U_f head: the view's comparisons must imply `x f`, re-derived by
    // exhaustive preorder enumeration.
    CQAC_ASSIGN_OR_RETURN(SiForm f,
                          SiForm::FromPredicateSuffix(pred.substr(2)));
    if (std::find(query_forms.begin(), query_forms.end(), f) ==
        query_forms.end())
      return reject("U predicate does not match any query comparison form");
    if (rule.head().args.size() != 1 || !rule.head().args[0].is_var())
      return reject("U atom must be unary over a variable");
    int v = view_var_of(rule.head().args[0].var());
    if (v < 0) return reject("U atom variable is not a view variable");
    if (HasSymbolicConstant(view.comparisons()))
      return Status::Unsupported(
          "cannot re-check U-atom bounds for views comparing symbolic "
          "constants");
    CQAC_ASSIGN_OR_RETURN(
        bool implied,
        ImpliesDisjunctionByPreorders(view.comparisons(),
                                      {{f.ToComparison(Term::Var(v))}}));
    if (!implied)
      return reject(StrCat("the view's comparisons do not imply the bound "
                           "on variable '", view.VarName(v), "'"));
  } else {
    // A base-predicate head: must be one of the view's body atoms.
    bool found = false;
    for (const Atom& a : view.body())
      if (SameAtomByName(rule, rule.head(), view, a)) found = true;
    if (!found)
      return reject("head is not a body atom of the source view");
  }

  // Skolems: every nondistinguished variable of the head carries a Skolem
  // term over the view's distinguished variables; distinguished variables
  // carry none.
  std::vector<bool> dist = view.DistinguishedMask();
  std::vector<int> head_vars = view.HeadVars();
  for (const Term& t : rule.head().args) {
    if (!t.is_var()) continue;
    int v = view_var_of(t.var());
    if (v < 0) return reject(StrCat("head variable '",
                                    RuleTermName(rule, t),
                                    "' is not a view variable"));
    auto it = er.skolems.find(t.var());
    if (dist[v]) {
      if (it != er.skolems.end())
        return reject("a distinguished view variable must not be "
                      "Skolemized");
      continue;
    }
    if (it == er.skolems.end())
      return reject(StrCat("nondistinguished view variable '",
                           view.VarName(v), "' lacks a Skolem term"));
    // The Skolem arguments must be exactly the view's head variables
    // (matched by name through the shared table convention).
    std::vector<std::string> got, want;
    for (int av : it->second.arg_vars) got.push_back(rule.VarName(av));
    for (int hv : head_vars) want.push_back(view.VarName(hv));
    if (got != want)
      return reject(StrCat("Skolem term for '", view.VarName(v),
                           "' is not over the view's head variables"));
  }
  return Status::OK();
}

}  // namespace

Status CheckSiMcr(const Query& q, const ViewSet& views, const SiMcr& mcr) {
  Result<Query> qp_result = Preprocess(q);
  if (!qp_result.ok()) {
    if (qp_result.status().code() != StatusCode::kInconsistent)
      return qp_result.status();
    if (!mcr.rules.empty())
      return Invalid(
          "an inconsistent query's MCR must be the empty program");
    return Status::OK();
  }
  Query qp = std::move(qp_result).value();
  if (!qp.IsCqacSi())
    return Status::Unsupported(
        "CheckSiMcr requires a CQAC-SI query (the Figure 4 setting)");
  if (mcr.rule_info.size() != mcr.rules.size())
    return Invalid("rule provenance does not cover every rule");

  // Recompute Q^datalog and match the program prefix structurally.
  CQAC_ASSIGN_OR_RETURN(Program qdl, BuildQdatalog(qp));
  if (mcr.query_predicate != qdl.query_predicate())
    return Invalid("query predicate does not match Q^datalog");
  std::vector<SiForm> query_forms = DistinctForms(qp);

  // Preprocess the views once (inverse rules reference them by index).
  std::vector<Result<Query>> prepped;
  prepped.reserve(views.size());
  for (const Query& v : views.views()) prepped.push_back(Preprocess(v));

  size_t qdl_seen = 0;
  for (size_t i = 0; i < mcr.rules.size(); ++i) {
    const datalog::EngineRule& er = mcr.rules[i];
    const SiMcrRuleInfo& info = mcr.rule_info[i];
    switch (info.kind) {
      case SiMcrRuleInfo::Kind::kQueryProgram: {
        if (qdl_seen >= qdl.rules().size())
          return Invalid("more Q^datalog rules than the recomputed program");
        if (er.rule.ToString() != qdl.rules()[qdl_seen].ToString() ||
            !er.skolems.empty())
          return Invalid(StrCat("rule #", i + 1,
                                " differs from the recomputed Q^datalog "
                                "rule"));
        ++qdl_seen;
        break;
      }
      case SiMcrRuleInfo::Kind::kInverse: {
        if (info.view_index < 0 ||
            info.view_index >= static_cast<int>(views.size()))
          return Invalid(StrCat("rule #", i + 1,
                                " references a view outside the view set"));
        const Result<Query>& vp = prepped[info.view_index];
        if (!vp.ok())
          return vp.status().code() == StatusCode::kInconsistent
                     ? Invalid(StrCat("rule #", i + 1,
                                      " derives from an inconsistent "
                                      "(empty) view"))
                     : vp.status();
        CQAC_RETURN_IF_ERROR(
            CheckInverseRule(er, vp.value(), query_forms, i + 1));
        break;
      }
      case SiMcrRuleInfo::Kind::kDomain: {
        const Rule& rule = er.rule;
        if (rule.head().predicate != "dom" || rule.head().args.size() != 1 ||
            rule.body().size() != 1 || !er.skolems.empty())
          return Invalid(StrCat("rule #", i + 1, " is not a domain rule"));
        bool matches_a_view = false;
        for (const Query& v : views.views())
          if (v.head().predicate == rule.body()[0].predicate &&
              v.head().args.size() == rule.body()[0].args.size())
            matches_a_view = true;
        if (!matches_a_view)
          return Invalid(StrCat("rule #", i + 1,
                                " domain rule over a non-view predicate"));
        const Term& out = rule.head().args[0];
        bool projected = false;
        for (const Term& t : rule.body()[0].args)
          if (t == out) projected = true;
        if (!out.is_var() || !projected)
          return Invalid(StrCat("rule #", i + 1,
                                " domain rule must project one view head "
                                "position"));
        break;
      }
      case SiMcrRuleInfo::Kind::kUDomain: {
        const Rule& rule = er.rule;
        const std::string& pred = rule.head().predicate;
        if (pred.rfind("U_", 0) != 0 || rule.head().args.size() != 1 ||
            rule.body().size() != 1 || rule.body()[0].predicate != "dom" ||
            rule.comparisons().size() != 1 || !er.skolems.empty())
          return Invalid(StrCat("rule #", i + 1, " is not a U-domain rule"));
        CQAC_ASSIGN_OR_RETURN(SiForm f,
                              SiForm::FromPredicateSuffix(pred.substr(2)));
        if (std::find(query_forms.begin(), query_forms.end(), f) ==
            query_forms.end())
          return Invalid(StrCat("rule #", i + 1,
                                " U-domain predicate matches no query "
                                "comparison form"));
        const Term& x = rule.head().args[0];
        if (!(rule.body()[0].args.size() == 1 &&
              rule.body()[0].args[0] == x &&
              rule.comparisons()[0] == f.ToComparison(x)))
          return Invalid(StrCat("rule #", i + 1,
                                " U-domain rule comparison does not match "
                                "its predicate"));
        break;
      }
    }
  }
  if (qdl_seen != qdl.rules().size())
    return Invalid("the program is missing Q^datalog rules");
  return Status::OK();
}

}  // namespace cqac
