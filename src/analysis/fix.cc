#include "src/analysis/fix.h"

#include <cstddef>
#include <set>
#include <utility>

#include "src/analysis/lint.h"
#include "src/base/strings.h"

namespace cqac {

std::string FixEdit::ToString() const {
  return StrCat("rule #", rule_index + 1, ": ", message, " [", code, "]");
}

namespace {

// ---- rule-level rewrites ---------------------------------------------------

bool TriviallyTrue(const Comparison& c) {
  if (c.lhs == c.rhs) return c.op != CompOp::kLt;  // t <= t, t = t
  if (!c.lhs.is_const() || !c.rhs.is_const()) return false;
  if (c.lhs.value().is_symbol() || c.rhs.value().is_symbol()) return false;
  const Rational& a = c.lhs.value().number();
  const Rational& b = c.rhs.value().number();
  switch (c.op) {
    case CompOp::kLt:
      return a < b;
    case CompOp::kLe:
      return a < b || a == b;
    case CompOp::kEq:
      return a == b;
  }
  return false;
}

void Substitute(Query* q, const Term& from, const Term& to) {
  auto subst = [&](Term& t) {
    if (t == from) t = to;
  };
  for (Term& t : q->head().args) subst(t);
  for (Atom& a : q->body())
    for (Term& t : a.args) subst(t);
  for (Comparison& c : q->comparisons()) {
    subst(c.lhs);
    subst(c.rhs);
  }
}

// Substitution leaves debris like `X <= X` or two copies of the same
// comparison; dropping it is part of the L010 rewrite (exactly what
// constraints::Preprocess does after merging).
void CleanComparisons(Query* q) {
  std::vector<Comparison> kept;
  for (const Comparison& c : q->comparisons()) {
    if (TriviallyTrue(c)) continue;
    bool dup = false;
    for (const Comparison& k : kept)
      if (k == c) {
        dup = true;
        break;
      }
    if (!dup) kept.push_back(c);
  }
  q->comparisons() = std::move(kept);
}

// L010: a forced pair of variables keeps the earlier one; a variable forced
// to a constant becomes the constant.
void MergeForcedEquality(const ForcedEquality& f, Query* q, int rule_index,
                         std::vector<FixEdit>* edits) {
  const Term var = Term::Var(f.var);
  if (f.other.is_var()) {
    edits->push_back({"L010", rule_index,
                      StrCat("substituted ", q->VarName(f.other.var()), " := ",
                             q->VarName(f.var),
                             " (the comparisons force them equal)")});
    Substitute(q, f.other, var);
  } else {
    edits->push_back({"L010", rule_index,
                      StrCat("substituted ", q->VarName(f.var), " := ",
                             f.other.value().number().ToString(),
                             " (the comparisons force the variable to the "
                             "constant)")});
    Substitute(q, var, f.other);
  }
  CleanComparisons(q);
}

// L008: drops the later copy.
void DropDuplicateSubgoal(const DuplicateSubgoal& d, Query* q, int rule_index,
                          std::vector<FixEdit>* edits) {
  std::vector<Atom>& body = q->body();
  edits->push_back({"L008", rule_index,
                    StrCat("dropped subgoal #", d.index + 1, " '",
                           body[d.index].predicate,
                           "(...)' (duplicates subgoal #", d.original + 1,
                           ")")});
  body.erase(body.begin() + static_cast<std::ptrdiff_t>(d.index));
}

// L006: drops the implied comparison (ground comparisons are L007's;
// folding those changes what the linter reports, so --fix leaves them
// alone).
void DropRedundantComparison(size_t i, Query* q, int rule_index,
                             std::vector<FixEdit>* edits) {
  std::vector<Comparison>& cs = q->comparisons();
  edits->push_back(
      {"L006", rule_index,
       StrCat("dropped comparison '", q->TermToString(cs[i].lhs), " ",
              CompOpName(cs[i].op), " ", q->TermToString(cs[i].rhs),
              "' (implied by the remaining comparisons)")});
  cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(i));
}

}  // namespace

bool FixQuery(Query* q, int rule_index, std::vector<FixEdit>* edits) {
  size_t before = edits->size();
  // The gate holds under every rewrite below (all are equivalence-preserving
  // and none can introduce a symbol comparison), so compute it once.
  const bool implication_ok =
      GateComparisons(*q) == ComparisonGate::kDense;
  // One rewrite per round, the first finding of L010, else L008, else L006:
  // substitutions create the duplicates and redundancies the later checks
  // clean up. Each round removes a variable, a subgoal, or a comparison, so
  // the loop terminates; the guard is a belt-and-braces bound.
  for (int guard = 0; guard < 10000; ++guard) {
    if (implication_ok) {
      std::vector<ForcedEquality> forced = FindForcedEqualities(*q);
      if (!forced.empty()) {
        MergeForcedEquality(forced.front(), q, rule_index, edits);
        continue;
      }
    }
    std::vector<DuplicateSubgoal> duplicates = FindDuplicateSubgoals(*q);
    if (!duplicates.empty()) {
      DropDuplicateSubgoal(duplicates.front(), q, rule_index, edits);
      continue;
    }
    if (implication_ok) {
      std::vector<size_t> redundant = FindRedundantComparisons(*q);
      if (!redundant.empty()) {
        DropRedundantComparison(redundant.front(), q, rule_index, edits);
        continue;
      }
    }
    break;
  }
  return edits->size() > before;
}

FixResult FixFileText(const std::string& text) {
  FixResult out{text, {}};
  const CqacText file = ReadCqacText(text);
  // Fixing around unparsed text is not safe: a plain program with a parse
  // error stays verbatim, and so does every script line with one.
  if (!file.script && !file.errors.empty()) return out;
  std::set<int> broken_lines;
  for (const ParseDiagnostic& e : file.errors)
    broken_lines.insert(e.span.begin.line);
  struct Replacement {
    size_t begin;
    size_t end;
    std::string text;
  };
  std::vector<Replacement> repls;  // in source order, never overlapping
  for (size_t r = 0; r < file.rules.size(); ++r) {
    const SourceSpan& span = file.rules[r].info.rule;
    if (broken_lines.count(span.begin.line)) continue;
    Query q = file.rules[r].query;
    std::vector<FixEdit> edits;
    if (!FixQuery(&q, static_cast<int>(r), &edits)) continue;
    if (!span.valid() || span.end.offset <= span.begin.offset ||
        span.end.offset > text.size())
      continue;  // no reliable span: report nothing rather than mis-edit
    repls.push_back({span.begin.offset, span.end.offset, q.ToString()});
    for (FixEdit& e : edits) out.edits.push_back(std::move(e));
  }
  // Back to front, so earlier offsets stay valid.
  for (auto it = repls.rbegin(); it != repls.rend(); ++it)
    out.text.replace(it->begin, it->end - it->begin, it->text);
  return out;
}

}  // namespace cqac
