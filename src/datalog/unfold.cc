#include "src/datalog/unfold.h"

#include <deque>

#include "src/base/strings.h"
#include "src/datalog/engine.h"
#include "src/ir/substitution.h"

namespace cqac {
namespace datalog {
namespace {

// Replaces body atom `pos` of `q` by the body of `rule` (head unified with
// the atom). Returns false when unification fails on constants (the branch
// is empty). Head-variable repetitions and constants become `=` comparisons.
bool UnfoldAtom(const Query& q, size_t pos, const Rule& rule, Query* out) {
  *out = Query();
  out->head() = q.head();
  for (const std::string& name : q.var_names()) out->FindOrAddVariable(name);
  out->comparisons() = q.comparisons();

  const Atom& target = q.body()[pos];
  VarMap map(rule.num_vars());

  // Unify rule head with the target atom.
  for (size_t i = 0; i < target.args.size(); ++i) {
    const Term& rh = rule.head().args[i];
    const Term& at = target.args[i];
    if (rh.is_var()) {
      if (!map.Bind(rh.var(), at))
        out->AddComparison(Comparison(map.Get(rh.var()), CompOp::kEq, at));
    } else if (at.is_const()) {
      if (!(rh.value() == at.value())) return false;
    } else {
      out->AddComparison(Comparison(at, CompOp::kEq, rh));
    }
  }
  // Fresh variables for the rule's nondistinguished variables.
  for (int v = 0; v < rule.num_vars(); ++v) {
    if (map.IsBound(v)) continue;
    int fresh = out->AddFreshVariable(rule.VarName(v));
    map.ForceBind(v, Term::Var(fresh));
  }

  for (size_t j = 0; j < q.body().size(); ++j) {
    if (j == pos) {
      for (const Atom& a : rule.body()) out->AddBodyAtom(map.ApplyToAtom(a));
    } else {
      out->AddBodyAtom(q.body()[j]);
    }
  }
  for (const Comparison& c : rule.comparisons())
    out->AddComparison(map.ApplyToComparison(c));
  return true;
}

}  // namespace

Result<UnionQuery> UnfoldProgram(const Program& p,
                                 const UnfoldOptions& options) {
  CQAC_RETURN_IF_ERROR(p.Validate());
  std::set<std::string> idb = p.IdbPredicates();

  // Group rules by head predicate.
  std::map<std::string, std::vector<const Rule*>> by_head;
  for (const Rule& r : p.rules()) by_head[r.head().predicate].push_back(&r);

  UnionQuery out;
  // Seed: a trivial query `ans(args) :- qpred(args)` per query-rule head
  // arity. We take the arity from the first query-predicate rule.
  const Rule* sample = by_head.at(p.query_predicate()).front();
  Query seed(p.query_predicate());
  Atom goal;
  goal.predicate = p.query_predicate();
  for (size_t i = 0; i < sample->head().args.size(); ++i) {
    int v = seed.AddFreshVariable(StrCat("A", i));
    goal.args.push_back(Term::Var(v));
    seed.head().args.push_back(Term::Var(v));
  }
  seed.AddBodyAtom(goal);

  std::deque<std::pair<Query, int>> frontier;  // (partial expansion, depth)
  frontier.emplace_back(std::move(seed), 0);

  while (!frontier.empty()) {
    auto [cur, depth] = std::move(frontier.front());
    frontier.pop_front();

    // Find the first IDB atom.
    size_t pos = cur.body().size();
    for (size_t i = 0; i < cur.body().size(); ++i) {
      if (idb.count(cur.body()[i].predicate)) {
        pos = i;
        break;
      }
    }
    if (pos == cur.body().size()) {
      if (out.disjuncts.size() >= options.max_disjuncts)
        return Status::ResourceExhausted(
            StrCat("unfolding '", p.query_predicate(), "' exceeds ",
                   options.max_disjuncts, " disjuncts"));
      out.disjuncts.push_back(std::move(cur));
      continue;
    }
    if (depth >= options.max_depth) continue;  // incomplete branch dropped

    for (const Rule* r : by_head[cur.body()[pos].predicate]) {
      if (r->head().args.size() != cur.body()[pos].args.size())
        return Status::InvalidArgument(
            StrCat("arity mismatch unfolding '", cur.body()[pos].predicate,
                   "'"));
      Query next;
      if (UnfoldAtom(cur, pos, *r, &next))
        frontier.emplace_back(std::move(next), depth + 1);
    }
  }
  return out;
}

Result<bool> IsCqContainedInDatalog(const Query& cq, const Program& p) {
  if (!cq.IsConjunctiveOnly())
    return Status::Unsupported(
        "IsCqContainedInDatalog requires a comparison-free CQ");
  for (const Rule& r : p.rules())
    if (!r.IsConjunctiveOnly())
      return Status::Unsupported(
          "IsCqContainedInDatalog requires a comparison-free program");
  CQAC_RETURN_IF_ERROR(cq.Validate());
  CQAC_RETURN_IF_ERROR(p.Validate());

  // Freeze: each variable becomes a distinct opaque symbol.
  auto freeze = [&cq](const Term& t) -> Value {
    if (t.is_const()) return t.value();
    return Value(StrCat("frz_", cq.VarName(t.var()), "_", t.var()));
  };
  Database frozen;
  for (const Atom& a : cq.body()) {
    Tuple t;
    for (const Term& arg : a.args) t.push_back(freeze(arg));
    CQAC_RETURN_IF_ERROR(frozen.Insert(a.predicate, std::move(t)));
  }
  Tuple frozen_head;
  for (const Term& arg : cq.head().args) frozen_head.push_back(freeze(arg));

  Engine engine(p);
  CQAC_ASSIGN_OR_RETURN(Database derived, engine.Evaluate(frozen));
  return derived.Get(p.query_predicate()).count(frozen_head) > 0;
}

}  // namespace datalog
}  // namespace cqac
