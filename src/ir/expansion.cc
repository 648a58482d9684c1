#include "src/ir/expansion.h"

#include "src/base/strings.h"
#include "src/ir/substitution.h"

namespace cqac {

Result<Query> ExpandRewriting(const Query& p, const ViewSet& views) {
  Query out;
  out.head() = p.head();
  for (const std::string& name : p.var_names()) out.FindOrAddVariable(name);
  out.comparisons() = p.comparisons();

  for (const Atom& atom : p.body()) {
    const Query* view = views.Find(atom.predicate);
    if (view == nullptr)
      return Status::InvalidArgument(
          StrCat("subgoal '", atom.predicate,
                 "' is not a view; rewritings must use only views"));
    if (view->head().args.size() != atom.args.size())
      return Status::InvalidArgument(
          StrCat("arity mismatch for view '", atom.predicate, "': used with ",
                 atom.args.size(), " args, defined with ",
                 view->head().args.size()));

    // Map view variables to terms of `out`.
    VarMap map(view->num_vars());
    for (size_t j = 0; j < atom.args.size(); ++j) {
      const Term& head_term = view->head().args[j];
      const Term& used_term = atom.args[j];  // term of p == term of out
      if (head_term.is_var()) {
        if (!map.Bind(head_term.var(), used_term)) {
          // The same view head variable is used at two positions with
          // different rewriting terms (head homomorphism at work): the two
          // rewriting terms must be equal.
          out.AddComparison(
              Comparison(map.Get(head_term.var()), CompOp::kEq, used_term));
        }
      } else {
        // A constant in the view head must equal the term the rewriting
        // supplies; expressed as an explicit `=` comparison (which is
        // inconsistent when two distinct constants meet).
        out.AddComparison(Comparison(used_term, CompOp::kEq, head_term));
      }
    }
    // Fresh variables for nondistinguished view variables.
    for (int v = 0; v < view->num_vars(); ++v) {
      if (map.IsBound(v)) continue;
      int fresh = out.AddFreshVariable(
          StrCat(atom.predicate, "_", view->VarName(v)));
      map.ForceBind(v, Term::Var(fresh));
    }
    for (const Atom& body_atom : view->body())
      out.AddBodyAtom(map.ApplyToAtom(body_atom));
    for (const Comparison& c : view->comparisons())
      out.AddComparison(map.ApplyToComparison(c));
  }
  return out;
}

}  // namespace cqac
