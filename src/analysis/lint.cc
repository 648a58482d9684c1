#include "src/analysis/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "src/analysis/classify.h"
#include "src/base/strings.h"
#include "src/constraints/implication.h"
#include "src/constraints/intervals.h"
#include "src/containment/containment.h"
#include "src/engine/context.h"

namespace cqac {

const char* LintSeverityName(LintSeverity s) {
  switch (s) {
    case LintSeverity::kNote:
      return "note";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "?";
}

std::string LintDiagnostic::ToString() const {
  std::string pos = span.valid() ? span.ToString() : "-";
  return StrCat(pos, ": ", LintSeverityName(severity), ": ", message, " [",
                code, "]");
}

const std::vector<LintCheckInfo>& LintChecks() {
  static const std::vector<LintCheckInfo> kChecks = {
      {"L001", LintSeverity::kError,
       "unsafe head variable: a head variable is not bound by any ordinary "
       "subgoal"},
      {"L002", LintSeverity::kError,
       "range-unrestricted variable: a variable appears only in comparisons"},
      {"L003", LintSeverity::kError,
       "unsatisfiable comparisons: the query denotes the empty relation"},
      {"L004", LintSeverity::kError,
       "ordered comparison over a symbolic constant (theta is only defined "
       "on the dense numeric order)"},
      {"L005", LintSeverity::kError,
       "predicate used with conflicting arities within one program"},
      {"L006", LintSeverity::kWarning,
       "redundant comparison: implied by the remaining comparisons"},
      {"L007", LintSeverity::kWarning,
       "constant-foldable comparison: both sides are constants"},
      {"L008", LintSeverity::kWarning, "duplicate subgoal"},
      {"L009", LintSeverity::kWarning,
       "subsumed subgoal: dropping it leaves an equivalent query"},
      {"L010", LintSeverity::kWarning,
       "comparisons force two terms equal; preprocessing will merge them"},
      {"L011", LintSeverity::kWarning,
       "suspicious head shape: repeated head variable or constant in the "
       "head"},
      {"L012", LintSeverity::kNote,
       "class inference: reports the query's CQ/LSI/RSI/CQAC-SI/SI/CQAC "
       "class and the applicable rewriting algorithm"},
  };
  return kChecks;
}

LintSeverity MaxLintSeverity(const std::vector<LintDiagnostic>& diags) {
  LintSeverity max = LintSeverity::kNote;
  for (const LintDiagnostic& d : diags)
    if (static_cast<int>(d.severity) > static_cast<int>(max)) max = d.severity;
  return max;
}

namespace {

// L009 subsumption runs full containment tests; rules with more body atoms
// than this are skipped.
constexpr size_t kSubsumptionMaxAtoms = 8;

std::string CompToString(const Query& q, const Comparison& c) {
  return StrCat(q.TermToString(c.lhs), " ", CompOpName(c.op), " ",
                q.TermToString(c.rhs));
}

SourceSpan SpanOrInvalid(const std::vector<SourceSpan>& spans, size_t i) {
  return i < spans.size() ? spans[i] : SourceSpan{};
}

bool IsOrderedOverSymbol(const Comparison& c) {
  return c.op != CompOp::kEq &&
         ((c.lhs.is_const() && c.lhs.value().is_symbol()) ||
          (c.rhs.is_const() && c.rhs.value().is_symbol()));
}

/// Per-rule linting state.
class RuleLinter {
 public:
  RuleLinter(const ParsedQuery& rule, int rule_index,
             const LintOptions& options, std::vector<LintDiagnostic>* out)
      : q_(rule.query),
        info_(rule.info),
        rule_index_(rule_index),
        options_(options),
        out_(out) {}

  void Run() {
    body_vars_ = q_.BodyVars();
    CheckUnsafeHead();          // L001
    CheckComparisonOnlyVars();  // L002
    const ComparisonGate gate = GateComparisons(q_);
    if (gate == ComparisonGate::kSymbolic) {
      CheckSymbolComparisons();  // L004
    } else {
      if (gate == ComparisonGate::kUnsatisfiable)
        Emit("L003", LintSeverity::kError, SpanOrInvalid(info_.comparisons, 0),
             "comparisons are unsatisfiable: the query denotes the empty "
             "relation on every database");
      CheckFoldableComparisons();  // L007
      if (gate == ComparisonGate::kDense) {
        CheckRedundantComparisons();  // L006
        CheckForcedEqualities();      // L010
      }
    }
    CheckDuplicateSubgoals();  // L008
    if (Clean()) CheckSubsumedSubgoals();  // L009
    CheckHeadShape();  // L011
    if (options_.notes && !q_.body().empty()) EmitClassNote();  // L012
  }

 private:
  bool Clean() const { return !has_error_; }

  void Emit(const char* code, LintSeverity severity, SourceSpan span,
            std::string message) {
    if (severity == LintSeverity::kError) has_error_ = true;
    out_->push_back(
        {code, severity, span, rule_index_, std::move(message)});
  }

  void CheckUnsafeHead() {
    for (int v : q_.HeadVars()) {
      if (body_vars_.count(v)) continue;
      Emit("L001", LintSeverity::kError,
           SpanOrInvalid(info_.var_first_use, static_cast<size_t>(v)),
           StrCat("head variable '", q_.VarName(v),
                  "' is not bound by any ordinary subgoal (unsafe rule)"));
    }
  }

  void CheckComparisonOnlyVars() {
    std::vector<bool> dist = q_.DistinguishedMask();
    for (int v : q_.ComparisonVars()) {
      if (body_vars_.count(v)) continue;
      if (dist[v]) continue;  // already reported as L001
      Emit("L002", LintSeverity::kError,
           SpanOrInvalid(info_.var_first_use, static_cast<size_t>(v)),
           StrCat("variable '", q_.VarName(v),
                  "' appears only in comparisons (range-unrestricted)"));
    }
  }

  void CheckSymbolComparisons() {
    for (size_t i = 0; i < q_.comparisons().size(); ++i) {
      const Comparison& c = q_.comparisons()[i];
      if (!IsOrderedOverSymbol(c)) continue;
      Emit("L004", LintSeverity::kError, SpanOrInvalid(info_.comparisons, i),
           StrCat("ordered comparison '", CompToString(q_, c),
                  "' over a symbolic constant (only numbers live on the "
                  "dense order)"));
    }
  }

  void CheckRedundantComparisons() {
    const std::vector<Comparison>& cs = q_.comparisons();
    for (size_t i : FindRedundantComparisons(q_)) {
      std::string msg = StrCat("comparison '", CompToString(q_, cs[i]),
                               "' is implied by the remaining comparisons");
      if (cs[i].IsSemiInterval()) {
        int v = cs[i].lhs.is_var() ? cs[i].lhs.var() : cs[i].rhs.var();
        Query rest_q = q_;
        rest_q.comparisons().erase(rest_q.comparisons().begin() +
                                   static_cast<std::ptrdiff_t>(i));
        Result<std::map<int, VarInterval>> ivs = DeriveIntervals(rest_q);
        if (ivs.ok()) {
          auto it = ivs.value().find(v);
          if (it != ivs.value().end() && !it->second.Unbounded())
            msg = StrCat(msg, " (they already bound ", q_.VarName(v), " to ",
                         it->second.ToString(), ")");
        }
      }
      Emit("L006", LintSeverity::kWarning, SpanOrInvalid(info_.comparisons, i),
           std::move(msg));
    }
  }

  void CheckFoldableComparisons() {
    for (size_t i = 0; i < q_.comparisons().size(); ++i) {
      const Comparison& c = q_.comparisons()[i];
      if (!c.lhs.is_const() || !c.rhs.is_const()) continue;
      if (c.lhs.value().is_symbol() || c.rhs.value().is_symbol()) continue;
      const Rational& a = c.lhs.value().number();
      const Rational& b = c.rhs.value().number();
      bool holds = c.op == CompOp::kLt   ? a < b
                   : c.op == CompOp::kLe ? (a < b || a == b)
                                         : a == b;
      Emit("L007", LintSeverity::kWarning, SpanOrInvalid(info_.comparisons, i),
           StrCat("comparison '", CompToString(q_, c), "' is always ",
                  holds ? "true; drop it" : "false: the query is empty"));
    }
  }

  void CheckDuplicateSubgoals() {
    for (const DuplicateSubgoal& d : FindDuplicateSubgoals(q_)) {
      Emit("L008", LintSeverity::kWarning, SpanOrInvalid(info_.body, d.index),
           StrCat("subgoal #", d.index + 1, " duplicates subgoal #",
                  d.original + 1, " exactly"));
      duplicate_.insert(d.index);
    }
  }

  void CheckSubsumedSubgoals() {
    if (q_.body().size() < 2 || q_.body().size() > kSubsumptionMaxAtoms)
      return;
    // Lint is a static check with no caller context (cqac_lint, `fix`, the
    // serve `lint` op). One local context bounds these containment checks by
    // the default budget and shares their memo across the drops.
    EngineContext ctx;
    for (size_t i = 0; i < q_.body().size(); ++i) {
      if (duplicate_.count(i)) continue;  // already reported as L008
      Query without = q_;
      without.body().erase(without.body().begin() + i);
      if (!without.Validate().ok()) continue;  // removal would break safety
      // Dropping a conjunct only ever widens the query, so `without` is
      // redundant-free iff it is still contained in the original.
      Result<bool> sub = IsContained(ctx, without, q_);
      if (!sub.ok() || !sub.value()) continue;
      Emit("L009", LintSeverity::kWarning, SpanOrInvalid(info_.body, i),
           StrCat("subgoal #", i + 1, " '",
                  q_.body()[i].predicate,
                  "(...)' is subsumed: dropping it leaves an equivalent "
                  "query"));
    }
  }

  void CheckForcedEqualities() {
    for (const ForcedEquality& f : FindForcedEqualities(q_)) {
      std::string msg =
          f.other.is_var()
              ? StrCat(q_.VarName(f.other.var()),
                       "; preprocessing will merge the variables")
              : StrCat(f.other.value().number().ToString(),
                       "; preprocessing will substitute the constant");
      Emit("L010", LintSeverity::kWarning, SpanOrInvalid(info_.comparisons, 0),
           StrCat("comparisons force ", q_.VarName(f.var), " = ", msg));
    }
  }

  void CheckHeadShape() {
    if (q_.body().empty()) return;  // facts put constants in the head
    std::set<int> seen;
    bool repeated = false, constant = false;
    for (const Term& t : q_.head().args) {
      if (t.is_const()) constant = true;
      else if (!seen.insert(t.var()).second) repeated = true;
    }
    if (repeated)
      Emit("L011", LintSeverity::kWarning, info_.head,
           "head repeats a variable; answers carry a duplicated column "
           "(often a typo in a view definition)");
    if (constant)
      Emit("L011", LintSeverity::kWarning, info_.head,
           "head contains a constant; the column is the same value in every "
           "answer (often a typo in a view definition)");
  }

  void EmitClassNote() {
    ClassInfo ci = ClassifyQuery(q_);
    Emit("L012", LintSeverity::kNote, info_.head,
         StrCat("query is in class ", ci.ToString(),
                "; applicable: ", ci.RecommendedAlgorithm()));
  }

  const Query& q_;
  const QuerySourceInfo& info_;
  int rule_index_;
  const LintOptions& options_;
  std::vector<LintDiagnostic>* out_;

  std::set<int> body_vars_;
  std::set<size_t> duplicate_;
  bool has_error_ = false;
};

/// L005: every use of a predicate (head or body) must agree on arity.
void CheckArities(const std::vector<ParsedQuery>& rules,
                  std::vector<LintDiagnostic>* out) {
  struct FirstUse {
    size_t arity;
    int rule_index;
    SourceSpan span;
  };
  std::map<std::string, FirstUse> first;
  auto visit = [&](const Atom& a, int rule_index, SourceSpan span) {
    auto [it, inserted] =
        first.emplace(a.predicate, FirstUse{a.args.size(), rule_index, span});
    if (inserted || it->second.arity == a.args.size()) return;
    std::string where =
        it->second.span.valid()
            ? StrCat("at ", it->second.span.ToString())
            : StrCat("in rule #", it->second.rule_index + 1);
    out->push_back({"L005", LintSeverity::kError, span, rule_index,
                    StrCat("predicate '", a.predicate, "' used with arity ",
                           a.args.size(), " but first used with arity ",
                           it->second.arity, " (", where, ")")});
  };
  for (size_t r = 0; r < rules.size(); ++r) {
    const ParsedQuery& pq = rules[r];
    visit(pq.query.head(), static_cast<int>(r), pq.info.head);
    for (size_t i = 0; i < pq.query.body().size(); ++i)
      visit(pq.query.body()[i], static_cast<int>(r),
            SpanOrInvalid(pq.info.body, i));
  }
}

void SortDiagnostics(std::vector<LintDiagnostic>* diags) {
  std::stable_sort(diags->begin(), diags->end(),
                   [](const LintDiagnostic& a, const LintDiagnostic& b) {
                     if (a.rule_index != b.rule_index)
                       return a.rule_index < b.rule_index;
                     return a.code < b.code;
                   });
}

}  // namespace

ComparisonGate GateComparisons(const Query& q) {
  for (const Comparison& c : q.comparisons())
    if (IsOrderedOverSymbol(c)) return ComparisonGate::kSymbolic;
  return AcsConsistent(q.comparisons()) ? ComparisonGate::kDense
                                        : ComparisonGate::kUnsatisfiable;
}

std::vector<ForcedEquality> FindForcedEqualities(const Query& q) {
  const std::vector<Comparison>& cs = q.comparisons();
  auto explicit_eq = [&](const Term& a, const Term& b) {
    for (const Comparison& c : cs)
      if (c.op == CompOp::kEq &&
          ((c.lhs == a && c.rhs == b) || (c.lhs == b && c.rhs == a)))
        return true;
    return false;
  };
  auto forced = [&](const Term& a, const Term& b) {
    Result<bool> r = ImpliesConjunction(
        cs, {Comparison(a, CompOp::kLe, b), Comparison(b, CompOp::kLe, a)});
    return r.ok() && r.value();
  };
  const std::set<int> var_set = q.ComparisonVars();
  const std::vector<int> vars(var_set.begin(), var_set.end());
  const std::vector<Rational> constants = q.ComparisonConstants();
  std::vector<ForcedEquality> out;
  for (size_t i = 0; i < vars.size(); ++i) {
    const Term a = Term::Var(vars[i]);
    std::vector<Term> partners;  // later variables first, then constants
    for (size_t j = i + 1; j < vars.size(); ++j)
      partners.push_back(Term::Var(vars[j]));
    for (const Rational& c : constants)
      partners.push_back(Term::Const(Value(c)));
    for (const Term& b : partners) {
      if (explicit_eq(a, b) || !forced(a, b)) continue;
      out.push_back({vars[i], b});
      break;
    }
  }
  return out;
}

std::vector<DuplicateSubgoal> FindDuplicateSubgoals(const Query& q) {
  const std::vector<Atom>& body = q.body();
  std::vector<DuplicateSubgoal> out;
  for (size_t i = 0; i < body.size(); ++i)
    for (size_t j = 0; j < i; ++j)
      if (body[i] == body[j]) {
        out.push_back({i, j});
        break;
      }
  return out;
}

std::vector<size_t> FindRedundantComparisons(const Query& q) {
  const std::vector<Comparison>& cs = q.comparisons();
  std::vector<size_t> out;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (cs[i].lhs.is_const() && cs[i].rhs.is_const()) continue;
    std::vector<Comparison> rest = cs;
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
    Result<bool> implied = ImpliesConjunction(rest, {cs[i]});
    if (implied.ok() && implied.value()) out.push_back(i);
  }
  return out;
}

std::vector<LintDiagnostic> LintProgram(const std::vector<ParsedQuery>& rules,
                                        const LintOptions& options) {
  std::vector<LintDiagnostic> out;
  for (size_t r = 0; r < rules.size(); ++r)
    RuleLinter(rules[r], static_cast<int>(r), options, &out).Run();
  CheckArities(rules, &out);
  SortDiagnostics(&out);
  return out;
}

std::vector<LintDiagnostic> LintQuery(const ParsedQuery& rule,
                                      const LintOptions& options) {
  std::vector<LintDiagnostic> out;
  RuleLinter(rule, 0, options, &out).Run();
  SortDiagnostics(&out);
  return out;
}

// ---- reading .cqac text (the linter, the fixer and the serve `lint` op) ----

const char kLintParseCode[] = "P001";

namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

bool IsOneOf(std::string_view word, std::span<const std::string_view> words) {
  return std::find(words.begin(), words.end(), word) != words.end();
}

// Shifts a span parsed from one line's rule text to its position in the
// whole file; the rule text starts at `origin`.
SourceSpan ShiftSpan(SourceSpan span, const SourcePos& origin) {
  for (SourcePos* pos : {&span.begin, &span.end}) {
    if (!pos->valid()) continue;
    pos->line = origin.line;
    pos->col += origin.col - 1;
    pos->offset += origin.offset;
  }
  return span;
}

}  // namespace

ScriptLine SplitScriptLine(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  size_t b = 0, e = line.size();
  while (b < e && IsBlank(line[b])) ++b;
  while (e > b && IsBlank(line[e - 1])) --e;
  line = line.substr(b, e - b);
  if (line.empty() || line[0] == '%') return {};
  size_t word_end = 0;
  while (word_end < line.size() && !IsBlank(line[word_end])) ++word_end;
  size_t arg = word_end;
  while (arg < line.size() && IsBlank(line[arg])) ++arg;
  return {line.substr(0, word_end), line.substr(arg)};
}

CqacText ReadCqacText(const std::string& text) {
  std::vector<std::string_view> lines;  // without their '\n'
  const std::string_view all(text);
  for (size_t b = 0; b <= all.size();) {
    size_t e = std::min(all.find('\n', b), all.size());
    lines.push_back(all.substr(b, e - b));
    b = e + 1;
  }
  CqacText out;
  for (std::string_view line : lines) {
    const ScriptLine split = SplitScriptLine(line);
    if (split.command.empty()) continue;
    out.script = IsOneOf(split.command, kShellCommands);
    break;
  }
  if (!out.script) {
    ParsedProgram program = ParseProgramWithDiagnostics(text);
    out.rules = std::move(program.rules);
    out.errors = std::move(program.errors);
    return out;
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    const ScriptLine split = SplitScriptLine(lines[i]);
    if (!IsOneOf(split.command, kRuleCommands) || split.argument.empty())
      continue;
    // The rule text runs to the end of the line, so an end-of-input error
    // points past the line's last byte, as it would in a plain file.
    const size_t line_begin = lines[i].data() - all.data();
    const size_t begin = split.argument.data() - all.data();
    const SourcePos origin{static_cast<int>(i) + 1,
                           static_cast<int>(begin - line_begin) + 1, begin};
    ParsedProgram parsed = ParseProgramWithDiagnostics(
        text.substr(begin, line_begin + lines[i].size() - begin));
    for (ParseDiagnostic& e : parsed.errors) {
      e.span = ShiftSpan(e.span, origin);
      out.errors.push_back(std::move(e));
    }
    for (ParsedQuery& pq : parsed.rules) {
      QuerySourceInfo& info = pq.info;
      info.rule = ShiftSpan(info.rule, origin);
      info.head = ShiftSpan(info.head, origin);
      for (std::vector<SourceSpan>* spans :
           {&info.body, &info.comparisons, &info.var_first_use})
        for (SourceSpan& span : *spans) span = ShiftSpan(span, origin);
      out.rules.push_back(std::move(pq));
    }
  }
  return out;
}

std::vector<LintDiagnostic> LintFileText(const std::string& text,
                                         const LintOptions& options) {
  CqacText file = ReadCqacText(text);
  std::vector<LintDiagnostic> out;
  for (ParseDiagnostic& e : file.errors)
    out.push_back({kLintParseCode, LintSeverity::kError, e.span, 0,
                   std::move(e.message)});
  for (LintDiagnostic& d : LintProgram(file.rules, options))
    out.push_back(std::move(d));
  return out;
}

}  // namespace cqac
