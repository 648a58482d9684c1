#include "tests/support/mirror.h"

#include <cstdlib>

namespace cqac {
namespace {

Term MirrorTerm(const Term& t) {
  if (t.is_var()) return t;
  if (!t.value().is_number()) return t;
  return Term::Const(Value(-t.value().number()));
}

}  // namespace

Query MirrorQuery(const Query& q) {
  Query out;
  out.head().predicate = q.head().predicate;
  for (const std::string& name : q.var_names()) out.FindOrAddVariable(name);
  for (const Term& t : q.head().args) out.head().args.push_back(MirrorTerm(t));
  for (const Atom& a : q.body()) {
    Atom na;
    na.predicate = a.predicate;
    for (const Term& t : a.args) na.args.push_back(MirrorTerm(t));
    out.AddBodyAtom(std::move(na));
  }
  // a op b  |->  -b op -a  (order reversal swaps sides; `=` is symmetric
  // but swapped anyway for involutivity).
  for (const Comparison& c : q.comparisons())
    out.AddComparison(
        Comparison(MirrorTerm(c.rhs), c.op, MirrorTerm(c.lhs)));
  return out;
}

ViewSet MirrorViews(const ViewSet& views) {
  ViewSet out;
  for (const Query& v : views.views()) {
    Status st = out.Add(MirrorQuery(v));
    if (!st.ok()) std::abort();  // names are unchanged, cannot collide
  }
  return out;
}

Database MirrorDatabase(const Database& db) {
  Database out;
  for (const auto& [pred, rel] : db.relations()) {
    for (const Tuple& t : rel) {
      Tuple nt;
      nt.reserve(t.size());
      for (const Value& v : t)
        nt.push_back(v.is_number() ? Value(-v.number()) : v);
      Status st = out.Insert(pred, std::move(nt));
      if (!st.ok()) std::abort();
    }
  }
  return out;
}

}  // namespace cqac
