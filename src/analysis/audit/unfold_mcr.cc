#include "src/analysis/audit/unfold_mcr.h"

#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/eval/evaluate.h"
#include "src/ir/canonical.h"

namespace cqac {
namespace audit {
namespace {

/// A term of the unfolding: a branch-local variable, a constant, or a
/// Skolem application f_i(t1,...,tn).
struct UTerm {
  enum class Kind { kVar, kConst, kSkolem };
  Kind kind = Kind::kVar;
  int var = -1;            // kVar
  Value value{Rational()}; // kConst
  int fn = -1;             // kSkolem
  std::vector<UTerm> args; // kSkolem

  static UTerm Var(int id) {
    UTerm t;
    t.kind = Kind::kVar;
    t.var = id;
    return t;
  }
  static UTerm Const(Value v) {
    UTerm t;
    t.kind = Kind::kConst;
    t.value = std::move(v);
    return t;
  }
};

struct UAtom {
  std::string predicate;
  std::vector<UTerm> args;
};

struct UComp {
  UTerm lhs;
  CompOp op;
  UTerm rhs;
};

/// One SLD branch: pending atoms (IDB and view mixed), accumulated
/// comparisons, the answer tuple, and the rule-application count.
struct Branch {
  std::vector<UAtom> atoms;
  std::vector<UComp> comps;
  std::vector<UTerm> head;
  size_t depth = 0;
};

using Subst = std::map<int, UTerm>;

/// Resolves the outermost variable chain of `t` under `s`.
const UTerm& Walk(const UTerm& t, const Subst& s) {
  const UTerm* cur = &t;
  while (cur->kind == UTerm::Kind::kVar) {
    auto it = s.find(cur->var);
    if (it == s.end()) break;
    cur = &it->second;
  }
  return *cur;
}

/// Fully applies `s` to `t`, including under Skolem applications.
UTerm Resolve(const UTerm& t, const Subst& s) {
  const UTerm& w = Walk(t, s);
  if (w.kind != UTerm::Kind::kSkolem) return w;
  UTerm out = w;
  for (UTerm& a : out.args) a = Resolve(a, s);
  return out;
}

bool Occurs(int var, const UTerm& t, const Subst& s) {
  const UTerm& w = Walk(t, s);
  if (w.kind == UTerm::Kind::kVar) return w.var == var;
  if (w.kind == UTerm::Kind::kSkolem)
    for (const UTerm& a : w.args)
      if (Occurs(var, a, s)) return true;
  return false;
}

/// Syntactic unification with occurs check. Skolem applications unify only
/// function-symbol- and argument-wise; a Skolem never equals a constant.
bool Unify(const UTerm& a, const UTerm& b, Subst* s) {
  const UTerm wa = Walk(a, *s);
  const UTerm wb = Walk(b, *s);
  if (wa.kind == UTerm::Kind::kVar && wb.kind == UTerm::Kind::kVar &&
      wa.var == wb.var)
    return true;
  if (wa.kind == UTerm::Kind::kVar) {
    if (Occurs(wa.var, wb, *s)) return false;
    s->emplace(wa.var, wb);
    return true;
  }
  if (wb.kind == UTerm::Kind::kVar) {
    if (Occurs(wb.var, wa, *s)) return false;
    s->emplace(wb.var, wa);
    return true;
  }
  if (wa.kind == UTerm::Kind::kConst && wb.kind == UTerm::Kind::kConst)
    return wa.value == wb.value;
  if (wa.kind == UTerm::Kind::kSkolem && wb.kind == UTerm::Kind::kSkolem) {
    if (wa.fn != wb.fn || wa.args.size() != wb.args.size()) return false;
    for (size_t i = 0; i < wa.args.size(); ++i)
      if (!Unify(wa.args[i], wb.args[i], s)) return false;
    return true;
  }
  return false;  // Skolem vs constant
}

/// Applies `s` to every term of `b`.
void ApplyToBranch(const Subst& s, Branch* b) {
  for (UAtom& a : b->atoms)
    for (UTerm& t : a.args) t = Resolve(t, s);
  for (UComp& c : b->comps) {
    c.lhs = Resolve(c.lhs, s);
    c.rhs = Resolve(c.rhs, s);
  }
  for (UTerm& t : b->head) t = Resolve(t, s);
}

bool HasSkolem(const UTerm& t) { return t.kind == UTerm::Kind::kSkolem; }

void CollectVars(const UTerm& t, std::map<int, int>* counts) {
  if (t.kind == UTerm::Kind::kVar) {
    ++(*counts)[t.var];
    return;
  }
  if (t.kind == UTerm::Kind::kSkolem)
    for (const UTerm& a : t.args) CollectVars(a, counts);
}

/// Greedily drops pending `dom` goals whose argument is already anchored
/// in another pending atom (or needed by neither head nor comparisons).
/// dom is the one predicate of the construction that only anchors a value
/// in the view domain (CheckSiMcr validates it by exactly this name): when
/// the argument ends up in a view atom of the finished disjunct the goal
/// is implied outright, so dropping it early merely relaxes the branch —
/// sound for the auditor's over-approximation — and avoids resolving every
/// dom goal against every dom rule (the 4^k blow-up of the pinned
/// Q^datalog). Structural atoms (view copies, I/J chain) are never
/// dropped.
void DropRedundantDomGoals(Branch* b) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<int, int> occurrences;
    for (const UAtom& a : b->atoms)
      for (const UTerm& t : a.args) CollectVars(t, &occurrences);
    std::set<int> needed;
    {
      std::map<int, int> c;
      for (const UTerm& t : b->head) CollectVars(t, &c);
      for (const UComp& comp : b->comps) {
        CollectVars(comp.lhs, &c);
        CollectVars(comp.rhs, &c);
      }
      for (const auto& [v, n] : c) needed.insert(v);
    }
    for (size_t i = 0; i < b->atoms.size(); ++i) {
      if (b->atoms[i].predicate != "dom") continue;
      std::map<int, int> own;
      for (const UTerm& t : b->atoms[i].args) CollectVars(t, &own);
      bool droppable = true;
      for (const auto& [v, n] : own) {
        const bool elsewhere = occurrences[v] > n;
        if (!elsewhere && needed.count(v)) {
          droppable = false;
          break;
        }
      }
      if (droppable && b->atoms.size() > 1) {
        b->atoms.erase(b->atoms.begin() + i);
        changed = true;
        break;
      }
    }
  }
}

/// Converts one rule term to a branch-local UTerm under `var_map` (rule
/// variable id -> fresh branch variable), instantiating Skolem specs.
UTerm InstantiateTerm(const Term& t, const datalog::EngineRule& er,
                      const std::vector<int>& var_map) {
  if (t.is_const()) return UTerm::Const(t.value());
  auto it = er.skolems.find(t.var());
  if (it == er.skolems.end()) return UTerm::Var(var_map[t.var()]);
  UTerm sk;
  sk.kind = UTerm::Kind::kSkolem;
  sk.fn = it->second.fn_id;
  for (int arg : it->second.arg_vars) sk.args.push_back(UTerm::Var(var_map[arg]));
  return sk;
}

/// Normalizes a completed (IDB-free) branch into a Query over view
/// predicates, or nullopt when the branch derives nothing (residual Skolem
/// terms, false ground comparisons).
std::optional<Query> FinishBranch(Branch branch,
                                  const std::string& query_predicate) {
  // Equality comparisons with a Skolem side act as unification constraints;
  // resolve them (repeatedly — a unification can ground another comparison)
  // before judging the rest.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<UComp> kept;
    for (size_t i = 0; i < branch.comps.size(); ++i) {
      UComp& c = branch.comps[i];
      const bool skolem_side = HasSkolem(c.lhs) || HasSkolem(c.rhs);
      if (c.op == CompOp::kEq && skolem_side) {
        Subst s;
        if (!Unify(c.lhs, c.rhs, &s)) return std::nullopt;
        for (size_t j = i + 1; j < branch.comps.size(); ++j)
          kept.push_back(branch.comps[j]);
        branch.comps = std::move(kept);
        ApplyToBranch(s, &branch);
        changed = true;
        break;
      }
      if (skolem_side) return std::nullopt;  // ordered: symbols are false
      if (c.lhs.kind == UTerm::Kind::kConst &&
          c.rhs.kind == UTerm::Kind::kConst) {
        if (!EvaluateGroundComparison(c.lhs.value, c.op, c.rhs.value))
          return std::nullopt;
        continue;  // holds; drop it
      }
      kept.push_back(c);
    }
    if (!changed) branch.comps = std::move(kept);
  }

  for (const UTerm& t : branch.head)
    if (HasSkolem(t)) return std::nullopt;  // Skolem answers are discarded
  for (const UAtom& a : branch.atoms)
    for (const UTerm& t : a.args)
      if (HasSkolem(t)) return std::nullopt;  // view extensions are real

  Query q;
  std::map<int, int> var_of;
  auto to_term = [&](const UTerm& t) {
    if (t.kind == UTerm::Kind::kConst) return Term::Const(t.value);
    auto it = var_of.find(t.var);
    if (it == var_of.end())
      it = var_of.emplace(t.var, q.AddVariable(StrCat("U", var_of.size())))
               .first;
    return Term::Var(it->second);
  };
  q.head().predicate = query_predicate;
  for (const UTerm& t : branch.head) q.head().args.push_back(to_term(t));
  for (const UAtom& a : branch.atoms) {
    Atom atom;
    atom.predicate = a.predicate;
    for (const UTerm& t : a.args) atom.args.push_back(to_term(t));
    q.AddBodyAtom(std::move(atom));
  }
  for (const UComp& c : branch.comps)
    q.AddComparison(Comparison(to_term(c.lhs), c.op, to_term(c.rhs)));
  if (!q.Validate().ok()) return std::nullopt;  // unsafe head: derives nothing
  return q;
}

}  // namespace

Result<UnfoldResult> UnfoldSiMcr(EngineContext& ctx, const SiMcr& mcr,
                                 const UnfoldOptions& options) {
  UnfoldResult result;
  if (mcr.rules.empty()) return result;  // the empty program derives nothing

  std::set<std::string> idb;
  for (const datalog::EngineRule& er : mcr.rules)
    idb.insert(er.rule.head().predicate);
  if (!idb.count(mcr.query_predicate))
    return Status::InvalidArgument(
        StrCat("the program has no rule for its query predicate '",
               mcr.query_predicate, "'"));

  int head_arity = -1;
  for (const datalog::EngineRule& er : mcr.rules)
    if (er.rule.head().predicate == mcr.query_predicate)
      head_arity = static_cast<int>(er.rule.head().args.size());

  // Per-rule recursion flags: a rule is recursive when some body predicate
  // reaches its head predicate in the program's dependency graph. Only
  // recursive applications (the I/J chain rounds) consume the depth
  // budget; the acyclic remainder strictly descends the predicate DAG, so
  // it terminates on its own and is unfolded to exhaustion.
  std::map<std::string, std::set<std::string>> deps;
  for (const datalog::EngineRule& er : mcr.rules)
    for (const Atom& a : er.rule.body())
      deps[er.rule.head().predicate].insert(a.predicate);
  auto reaches = [&deps](const std::string& from, const std::string& to) {
    std::set<std::string> visited;
    std::vector<const std::string*> stack = {&from};
    while (!stack.empty()) {
      const std::string& cur = *stack.back();
      stack.pop_back();
      if (cur == to) return true;
      if (!visited.insert(cur).second) continue;
      auto it = deps.find(cur);
      if (it == deps.end()) continue;
      for (const std::string& next : it->second) stack.push_back(&next);
    }
    return false;
  };
  std::vector<bool> recursive(mcr.rules.size(), false);
  for (size_t i = 0; i < mcr.rules.size(); ++i)
    for (const Atom& a : mcr.rules[i].rule.body())
      if (reaches(a.predicate, mcr.rules[i].rule.head().predicate)) {
        recursive[i] = true;
        break;
      }

  int next_var = 0;
  Branch root;
  for (int i = 0; i < head_arity; ++i) root.head.push_back(UTerm::Var(next_var++));
  UAtom goal;
  goal.predicate = mcr.query_predicate;
  goal.args = root.head;
  root.atoms.push_back(std::move(goal));

  std::set<std::string> seen;  // canonical texts of emitted disjuncts
  std::deque<Branch> work;
  work.push_back(std::move(root));
  size_t branches = 0;
  while (!work.empty()) {
    if (++branches > ctx.budget().max_mappings) {
      ++ctx.stats().budget_exhaustions;
      return Status::ResourceExhausted(
          "unfolding exceeded the mapping budget");
    }
    Status deadline = ctx.budget().CheckDeadline("unfolding");
    if (!deadline.ok()) {
      ++ctx.stats().budget_exhaustions;
      return deadline;
    }
    Branch branch = std::move(work.front());
    work.pop_front();
    DropRedundantDomGoals(&branch);

    // Select the first IDB atom (leftmost selection keeps the expansion
    // deterministic).
    size_t sel = branch.atoms.size();
    for (size_t i = 0; i < branch.atoms.size(); ++i)
      if (idb.count(branch.atoms[i].predicate)) {
        sel = i;
        break;
      }

    if (sel == branch.atoms.size()) {
      std::optional<Query> q =
          FinishBranch(std::move(branch), mcr.query_predicate);
      if (!q.has_value()) {
        ++result.discarded;
        continue;
      }
      const std::string key = Canonicalize(*q).text;
      if (seen.insert(key).second)
        result.unfolding.disjuncts.push_back(std::move(*q));
      continue;
    }

    UAtom selected = branch.atoms[sel];
    branch.atoms.erase(branch.atoms.begin() + sel);
    for (size_t ri = 0; ri < mcr.rules.size(); ++ri) {
      const datalog::EngineRule& er = mcr.rules[ri];
      const Rule& rule = er.rule;
      if (rule.head().predicate != selected.predicate ||
          rule.head().args.size() != selected.args.size())
        continue;
      if (recursive[ri] && branch.depth >= options.max_depth) {
        ++result.truncated;  // this alternative needs another chain round
        continue;
      }
      std::vector<int> var_map(rule.num_vars());
      int saved_next = next_var;
      for (int v = 0; v < rule.num_vars(); ++v) var_map[v] = next_var++;

      Subst s;
      bool ok = true;
      for (size_t i = 0; i < selected.args.size() && ok; ++i)
        ok = Unify(selected.args[i],
                   InstantiateTerm(rule.head().args[i], er, var_map), &s);
      if (!ok) {
        next_var = saved_next;
        continue;
      }

      Branch child = branch;
      for (const Atom& a : rule.body()) {
        UAtom ua;
        ua.predicate = a.predicate;
        for (const Term& t : a.args)
          ua.args.push_back(InstantiateTerm(t, er, var_map));
        child.atoms.push_back(std::move(ua));
      }
      for (const Comparison& c : rule.comparisons()) {
        UComp uc;
        uc.lhs = InstantiateTerm(c.lhs, er, var_map);
        uc.op = c.op;
        uc.rhs = InstantiateTerm(c.rhs, er, var_map);
        child.comps.push_back(std::move(uc));
      }
      ApplyToBranch(s, &child);
      if (recursive[ri]) ++child.depth;
      work.push_back(std::move(child));
    }
  }
  return result;
}

}  // namespace audit
}  // namespace cqac
