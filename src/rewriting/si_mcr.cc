#include "src/rewriting/si_mcr.h"

#include <algorithm>
#include <set>

#include "src/base/strings.h"
#include "src/constraints/preprocess.h"
#include "src/containment/si_reduction.h"
#include "src/engine/parallel.h"

namespace cqac {

std::string SiMcr::ToString() const {
  std::vector<std::string> lines;
  lines.reserve(rules.size());
  for (const datalog::EngineRule& r : rules) lines.push_back(r.ToString() + ".");
  return Join(lines, "\n");
}

Result<SiMcr> RewriteSiQueryDatalog(EngineContext& ctx, const Query& q,
                                    const ViewSet& views,
                                    const SiMcrOptions& options) {
  Result<Query> qp_result = Preprocess(q);
  if (!qp_result.ok()) {
    // An inconsistent query denotes the empty relation; its MCR is the
    // empty program, not an error.
    if (qp_result.status().code() == StatusCode::kInconsistent) {
      SiMcr empty;
      empty.query_predicate =
          q.head().predicate.empty() ? std::string("q") : q.head().predicate;
      return empty;
    }
    return qp_result.status();
  }
  Query qp = std::move(qp_result).value();
  if (!qp.IsCqacSi())
    return Status::Unsupported(
        "RewriteSiQueryDatalog requires a CQAC-SI query");
  if (!views.AllSiOnly() && !options.allow_general_views)
    return Status::Unsupported(
        "RewriteSiQueryDatalog requires SI-only views "
        "(set SiMcrOptions::allow_general_views for the Section 6 "
        "extension)");

  SiMcr mcr;

  // Step 1: Q^datalog.
  CQAC_ASSIGN_OR_RETURN(Program qdl, BuildQdatalog(qp));
  mcr.query_predicate = qdl.query_predicate();
  for (const Rule& r : qdl.rules()) {
    mcr.rules.push_back(datalog::EngineRule{r, {}});
    mcr.rule_info.push_back({SiMcrRuleInfo::Kind::kQueryProgram, -1});
  }

  // Distinct comparison forms of the query (they define the U predicates).
  std::vector<SiForm> forms;
  for (const Comparison& c : qp.comparisons()) {
    SiForm f = SiFormOf(c);
    if (std::find(forms.begin(), forms.end(), f) == forms.end())
      forms.push_back(f);
  }

  // Steps 2+4: per view, build v^CQ and emit one inverse rule per body atom.
  // The v^CQ constructions are independent and run in parallel; the merge
  // walks views in declaration order so skolem-function ids and rule order
  // are identical at every thread count. kInconsistent is a normal skip
  // (empty view), not an error, so it must not cancel sibling views.
  ParallelOutcomes<Result<Query>> vcqs(
      ctx, views.size(),
      [&](size_t i) {
        return BuildPcq(ctx, views[i], qp,
                        /*require_si_only=*/!options.allow_general_views);
      },
      [](const Result<Query>& r) {
        return !r.ok() && r.status().code() != StatusCode::kInconsistent;
      });
  int next_skolem = 0;
  for (size_t view_index = 0; view_index < views.size(); ++view_index) {
    Result<Query>& vcq_result = vcqs.Get(view_index);
    if (!vcq_result.ok()) {
      // An inconsistent view is always empty and contributes nothing.
      if (vcq_result.status().code() == StatusCode::kInconsistent) continue;
      return vcq_result.status();
    }
    Query vcq = std::move(vcq_result).value();

    // Skolem function ids: one per nondistinguished variable of this view.
    std::vector<bool> dist = vcq.DistinguishedMask();
    std::vector<int> skolem_id(vcq.num_vars(), -1);
    std::vector<int> head_vars = vcq.HeadVars();
    for (int var = 0; var < vcq.num_vars(); ++var)
      if (!dist[var]) skolem_id[var] = next_skolem++;

    for (const Atom& body_atom : vcq.body()) {
      datalog::EngineRule er;
      // The inverse rule shares the view's variable table; its single body
      // atom is the view head, its head is the body atom.
      Rule rule;
      for (const std::string& name : vcq.var_names())
        rule.FindOrAddVariable(name);
      rule.head() = body_atom;
      Atom view_atom;
      view_atom.predicate = vcq.head().predicate;
      view_atom.args = vcq.head().args;
      rule.AddBodyAtom(std::move(view_atom));
      er.rule = std::move(rule);
      for (const Term& t : body_atom.args) {
        if (!t.is_var() || dist[t.var()]) continue;
        datalog::SkolemSpec spec;
        spec.fn_id = skolem_id[t.var()];
        spec.arg_vars = head_vars;
        er.skolems.emplace(t.var(), std::move(spec));
      }
      mcr.rules.push_back(std::move(er));
      mcr.rule_info.push_back({SiMcrRuleInfo::Kind::kInverse,
                               static_cast<int>(view_index)});
    }
  }

  // Step 5 (executable form): U facts over real values via domain rules.
  // dom(X) :- v(.., X, ..) for every view head position;
  // U_f(X)  :- dom(X), X f.
  std::set<std::string> dom_rules_emitted;
  for (const Query& v : views.views()) {
    for (size_t pos = 0; pos < v.head().args.size(); ++pos) {
      if (!v.head().args[pos].is_var()) continue;
      std::string key = StrCat(v.head().predicate, "#", pos);
      if (!dom_rules_emitted.insert(key).second) continue;
      Rule rule;
      rule.head().predicate = "dom";
      Atom view_atom;
      view_atom.predicate = v.head().predicate;
      for (size_t j = 0; j < v.head().args.size(); ++j) {
        int var = rule.FindOrAddVariable(StrCat("X", j));
        view_atom.args.push_back(Term::Var(var));
      }
      rule.head().args.push_back(view_atom.args[pos]);
      rule.AddBodyAtom(std::move(view_atom));
      mcr.rules.push_back(datalog::EngineRule{std::move(rule), {}});
      mcr.rule_info.push_back({SiMcrRuleInfo::Kind::kDomain, -1});
    }
  }
  for (const SiForm& f : forms) {
    Rule rule;
    int x = rule.AddVariable("X");
    rule.head().predicate = StrCat("U_", f.PredicateSuffix());
    rule.head().args.push_back(Term::Var(x));
    Atom dom;
    dom.predicate = "dom";
    dom.args.push_back(Term::Var(x));
    rule.AddBodyAtom(std::move(dom));
    rule.AddComparison(f.ToComparison(Term::Var(x)));
    mcr.rules.push_back(datalog::EngineRule{std::move(rule), {}});
    mcr.rule_info.push_back({SiMcrRuleInfo::Kind::kUDomain, -1});
  }
  return mcr;
}

}  // namespace cqac
