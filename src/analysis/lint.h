// The semantic linter: static checks over parsed CQAC programs.
//
// Every check has a stable code (L001...), a fixed severity, and points at a
// source span when the input came through ParseQueryWithInfo /
// ParseProgramWithDiagnostics. The registry:
//
//   L001 error    unsafe head variable (not bound by any ordinary subgoal)
//   L002 error    variable appears only in comparisons (range-unrestricted)
//   L003 error    unsatisfiable comparisons: the query is trivially empty
//   L004 error    ordered comparison over a symbolic constant
//   L005 error    predicate used with conflicting arities in one program
//   L006 warning  comparison implied by the remaining comparisons
//   L007 warning  constant-foldable comparison (both sides constants)
//   L008 warning  duplicate subgoal
//   L009 warning  subsumed subgoal (dropping it leaves an equivalent query)
//   L010 warning  comparisons force variables equal (preprocessing merges)
//   L011 warning  suspicious head shape (repeated variable / constant)
//   L012 note     class inference: CQ/LSI/RSI/CQAC-SI/SI/CQAC + algorithm
//
// Errors are violations of the preconditions the paper's theorems assume
// (safety, satisfiability, dense-order comparisons); warnings are
// semantically meaningful but almost certainly unintended redundancies;
// notes are informational.
#ifndef CQAC_ANALYSIS_LINT_H_
#define CQAC_ANALYSIS_LINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/ir/parser.h"

namespace cqac {

enum class LintSeverity {
  kNote = 0,
  kWarning = 1,
  kError = 2,
};

/// Returns "note", "warning" or "error".
const char* LintSeverityName(LintSeverity s);

/// One diagnostic produced by the linter.
struct LintDiagnostic {
  std::string code;       // "L003"
  LintSeverity severity;
  SourceSpan span;        // invalid when no source info was available
  int rule_index = 0;     // which rule of the program (0-based)
  std::string message;

  /// Renders "3:12: error: ... [L003]" (no file name; callers prepend it).
  std::string ToString() const;
};

/// Registry entry describing one check.
struct LintCheckInfo {
  const char* code;
  LintSeverity severity;
  const char* summary;
};

/// All checks, in code order.
const std::vector<LintCheckInfo>& LintChecks();

struct LintOptions {
  /// Emit L012 class-inference notes.
  bool notes = true;
};

/// Lints a whole program: per-rule checks on every rule plus the cross-rule
/// arity check (L005). Diagnostics come out ordered by rule, then by code.
std::vector<LintDiagnostic> LintProgram(const std::vector<ParsedQuery>& rules,
                                        const LintOptions& options = {});

/// Lints one rule (no cross-rule checks).
std::vector<LintDiagnostic> LintQuery(const ParsedQuery& rule,
                                      const LintOptions& options = {});

/// The maximum severity among `diags`; kNote when empty.
LintSeverity MaxLintSeverity(const std::vector<LintDiagnostic>& diags);

// ---- the fixable checks (L006, L008, L010), shared with the fixer ---------

/// Which comparison checks can reason about a rule. The implication engine
/// speaks only the numeric dense order, so an ordered comparison over a
/// symbolic constant (L004) takes L003, L006, L007 and L010 off the table,
/// and unsatisfiable comparisons (L003) take L006 and L010.
enum class ComparisonGate {
  kSymbolic,       // an ordered comparison over a symbolic constant
  kUnsatisfiable,  // numeric, but no assignment satisfies them
  kDense,          // numeric and satisfiable: every check applies
};

ComparisonGate GateComparisons(const Query& q);

/// L010: the comparisons force variable `var` equal to `other` (a later
/// comparison variable or a comparison constant), and no explicit `=`
/// between the two says so.
struct ForcedEquality {
  int var;
  Term other;
};

/// L008: body atom `index` repeats the earlier body atom `original`.
struct DuplicateSubgoal {
  size_t index;
  size_t original;
};

/// The finders of the fixable checks. Each returns its findings in the
/// order the linter reports them, one diagnostic per finding; the fixer
/// (fix.h) applies the first finding of the first check that has one. The
/// L006 and L010 finders assume GateComparisons(q) == kDense.
///
/// L010: for each comparison variable, in id order, the first term it is
/// forced equal to: a later variable, else a constant.
std::vector<ForcedEquality> FindForcedEqualities(const Query& q);
/// L008: each atom that repeats an earlier one, with its first copy.
std::vector<DuplicateSubgoal> FindDuplicateSubgoals(const Query& q);
/// L006: the indices of the non-ground comparisons that the remaining
/// comparisons imply (ground ones are L007's).
std::vector<size_t> FindRedundantComparisons(const Query& q);

/// The code carried by parse-failure diagnostics ("P001"). Parse errors are
/// not lint checks (they have no LintCheckInfo entry) but share the
/// diagnostic shape so tools render them uniformly.
extern const char kLintParseCode[];

/// Every cqac_shell command word, in the order the shell's `help` lists
/// them. tools/cqac_shell.cc dispatches exactly this set (lint_test reads
/// its Dispatch to check), so script auto-detection knows every command.
inline constexpr std::string_view kShellCommands[] = {
    "view",  "query",    "fact",      "retract",   "classify",  "rewrite",
    "er",    "minimize", "eval",      "answers",   "contained", "explain",
    "intervals", "lint", "verify",    "audit",     "plan",      "stats",
    "save",  "load",     "reset",     "help"};

/// The commands whose argument is rule text (`fact` and `retract` take
/// atoms, which parse as bodiless rules). ReadCqacText reads a script's
/// rules from exactly these lines.
inline constexpr std::string_view kRuleCommands[] = {
    "view", "query", "fact", "retract", "contained", "explain"};

/// One line of a cqac_shell script, split at its first blank (a space or a
/// tab) into a command word and its argument.
struct ScriptLine {
  std::string_view command;   // empty for a blank line or a `%` comment
  std::string_view argument;  // the rest, without surrounding blanks
};

/// Splits one script line, given without its '\n' (a trailing '\r' of a
/// CRLF line ending is dropped). cqac_shell, cqac_audit and ReadCqacText
/// all read script lines through this.
ScriptLine SplitScriptLine(std::string_view line);

/// A `.cqac` file read once: either a cqac_shell script, auto-detected by
/// its first command line starting with a kShellCommands word, or a plain
/// '.'-terminated rule program.
struct CqacText {
  bool script = false;
  /// Every rule that parsed, in file order: a script's come from the rule
  /// text of its kRuleCommands lines. Spans (line, column and byte offset)
  /// are positions in the whole file.
  std::vector<ParsedQuery> rules;
  /// Every parse error, in file order, with file positions like the
  /// rules' (both kinds of file parse with recovery).
  std::vector<ParseDiagnostic> errors;
};

/// Reads `text`: the one reader of the linter, the fixer (fix.h) and the
/// serve `lint` op.
CqacText ReadCqacText(const std::string& text);

/// Lints raw file text the way the `cqac_lint` CLI and the serve `lint` op
/// do: ReadCqacText's parse errors come out first as P001 error diagnostics
/// in input order, followed by the lint diagnostics of its rules.
std::vector<LintDiagnostic> LintFileText(const std::string& text,
                                         const LintOptions& options = {});

}  // namespace cqac

#endif  // CQAC_ANALYSIS_LINT_H_
