#include "src/analysis/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

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
    CheckSymbolComparisons();   // L004
    // The implication-based checks assume comparisons over the numeric dense
    // order; symbol comparisons (L004) take them off the table.
    if (!has_symbol_comparison_) {
      CheckUnsatisfiable();          // L003
      CheckFoldableComparisons();    // L007
      if (consistent_) {
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
      if (c.op == CompOp::kEq) continue;
      bool symbolic = (c.lhs.is_const() && c.lhs.value().is_symbol()) ||
                      (c.rhs.is_const() && c.rhs.value().is_symbol());
      if (!symbolic) continue;
      has_symbol_comparison_ = true;
      Emit("L004", LintSeverity::kError, SpanOrInvalid(info_.comparisons, i),
           StrCat("ordered comparison '", CompToString(q_, c),
                  "' over a symbolic constant (only numbers live on the "
                  "dense order)"));
    }
  }

  void CheckUnsatisfiable() {
    consistent_ = AcsConsistent(q_.comparisons());
    if (consistent_) return;
    Emit("L003", LintSeverity::kError, SpanOrInvalid(info_.comparisons, 0),
         "comparisons are unsatisfiable: the query denotes the empty "
         "relation on every database");
  }

  void CheckRedundantComparisons() {
    const std::vector<Comparison>& cs = q_.comparisons();
    for (size_t i = 0; i < cs.size(); ++i) {
      if (cs[i].lhs.is_const() && cs[i].rhs.is_const())
        continue;  // ground comparisons are L007's
      std::vector<Comparison> rest;
      for (size_t j = 0; j < cs.size(); ++j)
        if (j != i) rest.push_back(cs[j]);
      Result<bool> implied = ImpliesConjunction(rest, {cs[i]});
      if (!implied.ok() || !implied.value()) continue;
      std::string msg = StrCat("comparison '", CompToString(q_, cs[i]),
                               "' is implied by the remaining comparisons");
      if (cs[i].IsSemiInterval()) {
        int v = cs[i].lhs.is_var() ? cs[i].lhs.var() : cs[i].rhs.var();
        Query rest_q = q_;
        rest_q.comparisons() = rest;
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
    for (size_t i = 0; i < q_.body().size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (!(q_.body()[i] == q_.body()[j])) continue;
        Emit("L008", LintSeverity::kWarning, SpanOrInvalid(info_.body, i),
             StrCat("subgoal #", i + 1,
                    " duplicates subgoal #", j + 1, " exactly"));
        duplicate_.insert(i);
        break;
      }
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
    const std::vector<Comparison>& cs = q_.comparisons();
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
    std::set<int> vars = q_.ComparisonVars();
    std::vector<int> vv(vars.begin(), vars.end());
    for (size_t i = 0; i < vv.size(); ++i) {
      Term a = Term::Var(vv[i]);
      bool merged = false;
      for (size_t j = i + 1; j < vv.size() && !merged; ++j) {
        Term b = Term::Var(vv[j]);
        if (explicit_eq(a, b) || !forced(a, b)) continue;
        Emit("L010", LintSeverity::kWarning, SpanOrInvalid(info_.comparisons, 0),
             StrCat("comparisons force ", q_.VarName(vv[i]), " = ",
                    q_.VarName(vv[j]),
                    "; preprocessing will merge the variables"));
        merged = true;
      }
      if (merged) continue;
      for (const Rational& c : q_.ComparisonConstants()) {
        Term b = Term::Const(Value(c));
        if (explicit_eq(a, b) || !forced(a, b)) continue;
        Emit("L010", LintSeverity::kWarning, SpanOrInvalid(info_.comparisons, 0),
             StrCat("comparisons force ", q_.VarName(vv[i]), " = ",
                    c.ToString(), "; preprocessing will substitute the "
                    "constant"));
        break;
      }
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
  bool has_symbol_comparison_ = false;
  bool consistent_ = true;
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

// ---- whole-file linting (shared by cqac_lint and the serve `lint` op) ------

const char kLintParseCode[] = "P001";

namespace {

bool IsShellCommandWord(const std::string& word) {
  for (std::string_view cmd : kShellCommands)
    if (word == cmd) return true;
  return false;
}

// Shifts a single-line span parsed from a line fragment back to its position
// in the whole file: the fragment starts at 1-based column `col0` of line
// `line_no`.
SourceSpan RemapSpan(SourceSpan span, int line_no, int col0) {
  if (!span.valid()) return span;
  span.begin.line = line_no;
  span.begin.col += col0 - 1;
  if (span.end.valid()) {
    span.end.line = line_no;
    span.end.col += col0 - 1;
  }
  return span;
}

std::vector<LintDiagnostic> LintPlainText(const std::string& text,
                                          const LintOptions& options) {
  ParsedProgram program = ParseProgramWithDiagnostics(text);
  std::vector<LintDiagnostic> out;
  for (const ParseDiagnostic& e : program.errors)
    out.push_back(
        {kLintParseCode, LintSeverity::kError, e.span, 0, e.message});
  for (LintDiagnostic& d : LintProgram(program.rules, options))
    out.push_back(std::move(d));
  return out;
}

std::vector<LintDiagnostic> LintShellText(const std::string& text,
                                          const LintOptions& options) {
  std::vector<LintDiagnostic> out;
  std::vector<ParsedQuery> rules;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '%') continue;
    size_t end = line.find_first_of(" \t\r", start);
    if (end == std::string::npos) continue;  // no-argument command
    std::string word = line.substr(start, end - start);
    if (word != "view" && word != "query" && word != "fact" &&
        word != "retract" && word != "contained" && word != "explain")
      continue;  // not a rule-carrying command
    size_t rule_start = line.find_first_not_of(" \t\r", end);
    if (rule_start == std::string::npos) continue;
    std::string rule_text = line.substr(rule_start);
    int col0 = static_cast<int>(rule_start) + 1;
    ParsedProgram parsed = ParseProgramWithDiagnostics(rule_text);
    for (const ParseDiagnostic& e : parsed.errors)
      out.push_back({kLintParseCode, LintSeverity::kError,
                     RemapSpan(e.span, line_no, col0), 0, e.message});
    for (ParsedQuery& pq : parsed.rules) {
      QuerySourceInfo& info = pq.info;
      info.rule = RemapSpan(info.rule, line_no, col0);
      info.head = RemapSpan(info.head, line_no, col0);
      for (SourceSpan& s : info.body) s = RemapSpan(s, line_no, col0);
      for (SourceSpan& s : info.comparisons)
        s = RemapSpan(s, line_no, col0);
      for (SourceSpan& s : info.var_first_use)
        s = RemapSpan(s, line_no, col0);
      rules.push_back(std::move(pq));
    }
  }
  // Spans were remapped before linting, so diagnostics come out already
  // pointing at the right file positions.
  for (LintDiagnostic& d : LintProgram(rules, options))
    out.push_back(std::move(d));
  return out;
}

}  // namespace

bool LooksLikeShellScript(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '%') continue;
    size_t end = line.find_first_of(" \t\r", start);
    std::string word = line.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    return IsShellCommandWord(word);
  }
  return false;
}

std::vector<LintDiagnostic> LintFileText(const std::string& text,
                                         const LintOptions& options) {
  return LooksLikeShellScript(text) ? LintShellText(text, options)
                                    : LintPlainText(text, options);
}

}  // namespace cqac
