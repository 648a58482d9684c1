#include "src/datalog/engine.h"

#include <set>

#include "src/base/strings.h"
#include "src/eval/evaluate.h"

namespace cqac {
namespace datalog {

bool IsSkolemValue(const Value& v) {
  return v.is_symbol() && v.symbol().rfind("sk", 0) == 0 &&
         v.symbol().find('(') != std::string::npos;
}

std::string EngineRule::ToString() const {
  if (skolems.empty()) return rule.ToString();
  // Render head args, substituting Skolem specs.
  std::vector<std::string> head_args;
  for (const Term& t : rule.head().args) {
    if (t.is_var() && skolems.count(t.var())) {
      const SkolemSpec& s = skolems.at(t.var());
      std::vector<std::string> args;
      for (int v : s.arg_vars) args.push_back(rule.VarName(v));
      head_args.push_back(StrCat("f", s.fn_id, "(", Join(args, ", "), ")"));
    } else {
      head_args.push_back(rule.TermToString(t));
    }
  }
  std::vector<std::string> items;
  for (const Atom& a : rule.body()) {
    std::vector<std::string> args;
    for (const Term& t : a.args) args.push_back(rule.TermToString(t));
    items.push_back(a.predicate + "(" + Join(args, ", ") + ")");
  }
  for (const Comparison& c : rule.comparisons())
    items.push_back(StrCat(rule.TermToString(c.lhs), " ", CompOpName(c.op),
                           " ", rule.TermToString(c.rhs)));
  return StrCat(rule.head().predicate, "(", Join(head_args, ", "), ") :- ",
                Join(items, ", "));
}

Engine::Engine(const Program& program)
    : query_predicate_(program.query_predicate()) {
  rules_.reserve(program.rules().size());
  for (const Rule& r : program.rules()) rules_.push_back(EngineRule{r, {}});
}

Engine::Engine(std::vector<EngineRule> rules, std::string query_predicate)
    : rules_(std::move(rules)), query_predicate_(std::move(query_predicate)) {}

namespace {

// Instantiates the head of `er` (including Skolem terms) for row `row` of a
// batch of satisfying body assignments. *head is a reused buffer: the
// caller copies it on keep, so firing a rule allocates nothing per row
// beyond what the output set itself requires.
Status InstantiateHead(const EngineRule& er, const Batch& b,
                       const std::vector<int>& var_col, size_t row,
                       Tuple* head) {
  head->clear();
  head->reserve(er.rule.head().args.size());
  for (const Term& t : er.rule.head().args) {
    if (t.is_const()) {
      head->push_back(t.value());
      continue;
    }
    auto sk = er.skolems.find(t.var());
    if (sk != er.skolems.end()) {
      std::vector<std::string> parts;
      for (int arg : sk->second.arg_vars) {
        if (var_col[arg] < 0)
          return Status::Internal("unbound skolem argument");
        parts.push_back(b.cols[var_col[arg]].At(row).ToString());
      }
      head->push_back(
          Value(StrCat("sk", sk->second.fn_id, "(", Join(parts, ","), ")")));
      continue;
    }
    if (var_col[t.var()] < 0)
      return Status::Internal("unbound head variable");
    head->push_back(b.cols[var_col[t.var()]].At(row));
  }
  return Status::OK();
}

}  // namespace

Status Engine::ValidateRules() const {
  for (const EngineRule& er : rules_) {
    const Rule& r = er.rule;
    std::set<int> body_vars = r.BodyVars();
    for (const Term& t : r.head().args) {
      if (!t.is_var()) continue;
      if (body_vars.count(t.var())) continue;
      auto it = er.skolems.find(t.var());
      if (it == er.skolems.end())
        return Status::InvalidArgument(
            StrCat("unsafe rule head variable '", r.VarName(t.var()), "' in ",
                   er.ToString()));
      for (int arg : it->second.arg_vars)
        if (!body_vars.count(arg))
          return Status::InvalidArgument(
              StrCat("skolem argument '", r.VarName(arg),
                     "' not bound by the body in ", er.ToString()));
    }
  }
  return Status::OK();
}

Result<Database> Engine::Evaluate(const Database& edb,
                                  const EvalOptions& options) const {
  CQAC_RETURN_IF_ERROR(ValidateRules());

  std::set<std::string> idb;
  for (const EngineRule& er : rules_) idb.insert(er.rule.head().predicate);

  // full/delta relations per IDB predicate.
  std::map<std::string, Relation> full;
  std::map<std::string, Relation> delta;
  for (const std::string& p : idb) {
    full[p];
    delta[p];
  }
  size_t total = 0;

  // Runs the body join of `er` over `rels` and inserts every instantiated
  // head into `out` unless it is already known in `full`.
  Tuple head_buf;
  auto fire_rule = [&](const EngineRule& er,
                       const std::vector<JoinInput>& inputs,
                       std::map<std::string, Relation>* out) -> Status {
    Status st = Status::OK();
    const std::string& pred = er.rule.head().predicate;
    const Relation& known = full[pred];
    Relation& sink = (*out)[pred];
    JoinBodyBatches(
        er.rule, inputs,
        [&](const Batch& b, const std::vector<int>& var_col) {
          for (size_t row = 0; row < b.rows; ++row) {
            st = InstantiateHead(er, b, var_col, row, &head_buf);
            if (!st.ok()) return false;
            if (!known.count(head_buf) && sink.insert(head_buf).second)
              ++total;
          }
          return true;
        },
        [] { return true; });
    return st;
  };

  // Input selector: IDB reads `full` (or delta when flagged), both bare
  // relations of this evaluation; EDB reads the input database through its
  // own indexes.
  auto input_for = [&](const Atom& a,
                       const Relation* delta_override) -> JoinInput {
    if (delta_override != nullptr) return JoinInput::Bare(*delta_override);
    if (idb.count(a.predicate)) return JoinInput::Bare(full[a.predicate]);
    return JoinInput::Owned(edb, a.predicate);
  };

  // Round 0: every rule evaluated with IDB relations empty contributes only
  // if it has no IDB body atoms.
  for (const EngineRule& er : rules_) {
    bool has_idb = false;
    for (const Atom& a : er.rule.body())
      if (idb.count(a.predicate)) has_idb = true;
    if (has_idb) continue;
    std::vector<JoinInput> inputs;
    for (const Atom& a : er.rule.body()) inputs.push_back(input_for(a, nullptr));
    CQAC_RETURN_IF_ERROR(fire_rule(er, inputs, &delta));
  }
  for (const std::string& p : idb)
    full[p].insert(delta[p].begin(), delta[p].end());

  // Semi-naive rounds.
  size_t iterations = 0;
  while (true) {
    size_t delta_size = 0;
    for (const std::string& p : idb) delta_size += delta[p].size();
    if (delta_size == 0) break;
    if (++iterations > options.max_iterations)
      return Status::ResourceExhausted("datalog evaluation iteration limit");
    if (total > options.max_tuples)
      return Status::ResourceExhausted("datalog evaluation tuple limit");

    std::map<std::string, Relation> next;
    for (const std::string& p : idb) next[p];

    for (const EngineRule& er : rules_) {
      // For each IDB body position, evaluate with that atom bound to delta.
      for (size_t i = 0; i < er.rule.body().size(); ++i) {
        const Atom& pivot = er.rule.body()[i];
        if (!idb.count(pivot.predicate)) continue;
        if (delta[pivot.predicate].empty()) continue;
        std::vector<JoinInput> inputs;
        for (size_t j = 0; j < er.rule.body().size(); ++j)
          inputs.push_back(input_for(
              er.rule.body()[j],
              j == i ? &delta[er.rule.body()[j].predicate] : nullptr));
        CQAC_RETURN_IF_ERROR(fire_rule(er, inputs, &next));
      }
    }
    for (const std::string& p : idb)
      full[p].insert(next[p].begin(), next[p].end());
    delta = std::move(next);
  }

  Database out;
  for (const std::string& p : idb)
    for (const Tuple& t : full[p]) CQAC_RETURN_IF_ERROR(out.Insert(p, t));
  return out;
}

Result<Relation> Engine::Query(const Database& edb,
                               const EvalOptions& options) const {
  CQAC_ASSIGN_OR_RETURN(Database idb, Evaluate(edb, options));
  Relation out;
  for (const Tuple& t : idb.Get(query_predicate_)) {
    bool has_skolem = false;
    for (const Value& v : t)
      if (IsSkolemValue(v)) has_skolem = true;
    if (!has_skolem) out.insert(t);
  }
  return out;
}

}  // namespace datalog
}  // namespace cqac
