#include "src/containment/si_reduction.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/preprocess.h"
#include "src/datalog/unfold.h"

namespace cqac {

Comparison SiForm::ToComparison(const Term& x) const {
  Term ct = Term::Const(Value(c));
  CompOp op = strict ? CompOp::kLt : CompOp::kLe;
  if (lower) return Comparison(ct, op, x);  // c < X
  return Comparison(x, op, ct);             // X < c
}

std::string SiForm::PredicateSuffix() const {
  const char* op = lower ? (strict ? "gt" : "ge") : (strict ? "lt" : "le");
  std::string enc = c.ToString();
  std::string cleaned;
  for (char ch : enc) {
    if (ch == '/')
      cleaned += 'd';
    else if (ch == '-')
      cleaned += 'm';
    else
      cleaned += ch;
  }
  return StrCat(op, "_", cleaned);
}

Result<SiForm> SiForm::FromPredicateSuffix(const std::string& suffix) {
  size_t sep = suffix.find('_');
  if (sep == std::string::npos || sep != 2)
    return Status::InvalidArgument(
        StrCat("malformed SiForm suffix '", suffix, "'"));
  std::string op = suffix.substr(0, sep);
  SiForm f;
  if (op == "gt") {
    f.lower = true;
    f.strict = true;
  } else if (op == "ge") {
    f.lower = true;
    f.strict = false;
  } else if (op == "lt") {
    f.lower = false;
    f.strict = true;
  } else if (op == "le") {
    f.lower = false;
    f.strict = false;
  } else {
    return Status::InvalidArgument(
        StrCat("unknown SiForm operator '", op, "'"));
  }
  std::string enc = suffix.substr(sep + 1);
  std::string number;
  for (char ch : enc) {
    if (ch == 'd')
      number += '/';
    else if (ch == 'm')
      number += '-';
    else
      number += ch;
  }
  CQAC_ASSIGN_OR_RETURN(f.c, Rational::Parse(number));
  return f;
}

SiForm SiFormOf(const Comparison& c) {
  assert(c.IsSemiInterval());
  SiForm f;
  if (c.lhs.is_var()) {  // X theta c : upper bound
    f.lower = false;
    f.strict = (c.op == CompOp::kLt);
    f.c = c.rhs.value().number();
  } else {  // c theta X : lower bound
    f.lower = true;
    f.strict = (c.op == CompOp::kLt);
    f.c = c.lhs.value().number();
  }
  return f;
}

bool FormsCouple(const SiForm& f1, const SiForm& f2) {
  if (f1.lower == f2.lower) return false;  // same direction never couples
  // `X f1 or X f2` is a tautology iff `not(X f1) and not(X f2)` is
  // unsatisfiable. Negate by flipping sides and strictness.
  Query scratch;  // variable space for a fresh variable id 0
  int x = scratch.AddVariable("X");
  auto negate = [&x](const SiForm& f) {
    Comparison c = f.ToComparison(Term::Var(x));
    return Comparison(c.rhs, c.op == CompOp::kLt ? CompOp::kLe : CompOp::kLt,
                      c.lhs);
  };
  return !AcsConsistent({negate(f1), negate(f2)});
}

namespace {

/// Distinct SI forms of a preprocessed query's comparisons.
std::vector<SiForm> FormsOf(const Query& q) {
  std::vector<SiForm> out;
  for (const Comparison& c : q.comparisons()) {
    SiForm f = SiFormOf(c);
    if (std::find(out.begin(), out.end(), f) == out.end()) out.push_back(f);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Result<Query> BuildPcq(EngineContext& ctx, const Query& p, const Query& q1,
                       bool require_si_only) {
  CQAC_ASSIGN_OR_RETURN(Query pp, Preprocess(p));
  CQAC_ASSIGN_OR_RETURN(Query q1p, Preprocess(q1));
  if (require_si_only && !pp.IsSiOnly())
    return Status::Unsupported("BuildPcq requires an SI-only query");

  std::vector<SiForm> forms = FormsOf(q1p);

  Query out;
  out.head() = pp.head();
  for (const std::string& name : pp.var_names()) out.FindOrAddVariable(name);
  out.body() = pp.body();

  // For every variable and every Q1 comparison form implied by P's
  // comparisons, add the unary U atom.
  for (int v : pp.ComparisonVars()) {
    for (const SiForm& f : forms) {
      Comparison goal = f.ToComparison(Term::Var(v));
      CQAC_ASSIGN_OR_RETURN(bool implied,
                            ImpliesConjunction(ctx, pp.comparisons(), {goal}));
      if (implied) {
        Atom u;
        u.predicate = StrCat("U_", f.PredicateSuffix());
        u.args.push_back(Term::Var(v));
        out.AddBodyAtom(std::move(u));
      }
    }
  }
  // P^CQ is comparison-free by construction.
  return out;
}

Result<Program> BuildQdatalog(const Query& q1) {
  CQAC_ASSIGN_OR_RETURN(Query q1p, Preprocess(q1));
  if (!q1p.IsCqacSi())
    return Status::Unsupported(
        "BuildQdatalog requires a CQAC-SI query (at most one LSI with any "
        "number of RSI comparisons, or the mirror image)");

  Program prog;
  prog.set_query_predicate(q1p.head().predicate.empty()
                               ? std::string("q")
                               : q1p.head().predicate);

  // Head pins. The I/J recursion discharges a comparison by case analysis:
  // "if the comparison fails, some OTHER body match satisfies the query".
  // For a boolean query any match suffices, but for a distinguished head
  // the alternative match must produce the SAME answer tuple — otherwise
  // the program derives q(a) from a witness for q(b). Every I/J predicate
  // therefore carries the query's head terms in front of its comparison
  // variable, pinning the whole case tree to one answer. An empty head
  // degenerates to the paper's Section 5.3 program verbatim.
  const std::vector<Term>& pins = q1p.head().args;
  auto pinned = [&pins](const std::string& pred, const Term& x) {
    Atom a;
    a.predicate = pred;
    a.args = pins;
    a.args.push_back(x);
    return a;
  };

  // --- Query rule: ordinary subgoals + I-atom per comparison. -------------
  Rule query_rule;
  query_rule.head() = q1p.head();
  query_rule.head().predicate = prog.query_predicate();
  for (const std::string& name : q1p.var_names())
    query_rule.FindOrAddVariable(name);
  query_rule.body() = q1p.body();
  for (const Comparison& c : q1p.comparisons()) {
    SiForm f = SiFormOf(c);
    const Term& x = c.lhs.is_var() ? c.lhs : c.rhs;
    query_rule.AddBodyAtom(pinned(StrCat("I_", f.PredicateSuffix()), x));
  }
  prog.AddRule(std::move(query_rule));

  // --- Mapping rules: one per comparison e; body copies the query rule's
  // body minus e's own I-atom; head is e's J-atom. -------------------------
  const size_t num_acs = q1p.comparisons().size();
  for (size_t e = 0; e < num_acs; ++e) {
    const Comparison& ce = q1p.comparisons()[e];
    SiForm fe = SiFormOf(ce);
    const Term& xe = ce.lhs.is_var() ? ce.lhs : ce.rhs;

    Rule rule;
    rule.head().predicate = StrCat("J_", fe.PredicateSuffix());
    for (const std::string& name : q1p.var_names())
      rule.FindOrAddVariable(name);
    rule.head().args = pins;
    rule.head().args.push_back(xe);
    rule.body() = q1p.body();
    for (size_t o = 0; o < num_acs; ++o) {
      if (o == e) continue;
      const Comparison& co = q1p.comparisons()[o];
      SiForm fo = SiFormOf(co);
      const Term& xo = co.lhs.is_var() ? co.lhs : co.rhs;
      rule.AddBodyAtom(pinned(StrCat("I_", fo.PredicateSuffix()), xo));
    }
    prog.AddRule(std::move(rule));
  }

  // --- Coupling rules: for each tautological pair of forms. ---------------
  std::vector<SiForm> forms = FormsOf(q1p);
  for (const SiForm& f1 : forms) {
    for (const SiForm& f2 : forms) {
      if (!(f1 < f2)) continue;
      if (!FormsCouple(f1, f2)) continue;
      for (const auto& [head_f, body_f] :
           {std::make_pair(f1, f2), std::make_pair(f2, f1)}) {
        Rule rule;
        Atom j;
        j.predicate = StrCat("J_", body_f.PredicateSuffix());
        for (size_t hi = 0; hi < pins.size(); ++hi)
          j.args.push_back(
              Term::Var(rule.AddVariable(StrCat("H", hi))));
        j.args.push_back(Term::Var(rule.AddVariable("W")));
        rule.head().predicate = StrCat("I_", head_f.PredicateSuffix());
        rule.head().args = j.args;
        rule.AddBodyAtom(std::move(j));
        prog.AddRule(std::move(rule));
      }
    }
  }

  // --- Initialization rules: I_f(H..., A) :- U_f(A) [, dom(H)...]. --------
  // The pinned head variables are unconstrained here (a literally-true
  // comparison discharges regardless of the answer tuple), so each distinct
  // pin variable is range-restricted by the dom relation below.
  for (const SiForm& f : forms) {
    Rule rule;
    if (pins.empty()) {
      int a = rule.AddVariable("A");
      rule.head().predicate = StrCat("I_", f.PredicateSuffix());
      rule.head().args.push_back(Term::Var(a));
      Atom u;
      u.predicate = StrCat("U_", f.PredicateSuffix());
      u.args.push_back(Term::Var(a));
      rule.AddBodyAtom(std::move(u));
    } else {
      for (const std::string& name : q1p.var_names())
        rule.FindOrAddVariable(name);
      std::string fresh = "A";
      while (rule.FindVariable(fresh) >= 0) fresh += "_";
      int a = rule.FindOrAddVariable(fresh);
      rule.head().predicate = StrCat("I_", f.PredicateSuffix());
      rule.head().args = pins;
      rule.head().args.push_back(Term::Var(a));
      Atom u;
      u.predicate = StrCat("U_", f.PredicateSuffix());
      u.args.push_back(Term::Var(a));
      rule.AddBodyAtom(std::move(u));
      std::vector<int> restricted;
      for (const Term& t : pins) {
        if (!t.is_var()) continue;
        if (std::find(restricted.begin(), restricted.end(), t.var()) !=
            restricted.end())
          continue;
        restricted.push_back(t.var());
        Atom dom;
        dom.predicate = "dom";
        dom.args.push_back(t);
        rule.AddBodyAtom(std::move(dom));
      }
    }
    prog.AddRule(std::move(rule));
  }

  // --- Domain rules for the pins: dom projects every variable position of
  // the query's own body predicates (in the MCR composition these are
  // derived from inverse rules, so dom also ranges over Skolem terms —
  // harmless, since Skolem-headed answers are discarded). ------------------
  if (!pins.empty()) {
    std::set<std::string> dom_emitted;
    for (const Atom& atom : q1p.body()) {
      for (size_t pos = 0; pos < atom.args.size(); ++pos) {
        if (!atom.args[pos].is_var()) continue;
        std::string key = StrCat(atom.predicate, "#", pos);
        if (!dom_emitted.insert(key).second) continue;
        Rule rule;
        rule.head().predicate = "dom";
        Atom body;
        body.predicate = atom.predicate;
        for (size_t j = 0; j < atom.args.size(); ++j)
          body.args.push_back(
              Term::Var(rule.FindOrAddVariable(StrCat("X", j))));
        rule.head().args.push_back(body.args[pos]);
        rule.AddBodyAtom(std::move(body));
        prog.AddRule(std::move(rule));
      }
    }
  }
  return prog;
}

Result<bool> IsContainedSiReduction(EngineContext& ctx, const Query& q2,
                                    const Query& q1) {
  if (q2.head().args.size() != q1.head().args.size())
    return Status::InvalidArgument(
        "containment between queries of different head arity");
  Result<Query> q2p = Preprocess(q2);
  if (!q2p.ok() && q2p.status().code() == StatusCode::kInconsistent)
    return true;
  CQAC_RETURN_IF_ERROR(q2p.status());
  Result<Query> q1p = Preprocess(q1);
  if (!q1p.ok() && q1p.status().code() == StatusCode::kInconsistent)
    return false;
  CQAC_RETURN_IF_ERROR(q1p.status());

  if (!q2p.value().IsSiOnly())
    return Status::Unsupported("SI reduction requires an SI-only Q2");
  CQAC_ASSIGN_OR_RETURN(Query pcq, BuildPcq(ctx, q2p.value(), q1p.value()));
  CQAC_ASSIGN_OR_RETURN(Program qdl, BuildQdatalog(q1p.value()));
  return datalog::IsCqContainedInDatalog(pcq, qdl);
}

}  // namespace cqac
