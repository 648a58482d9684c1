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
  /// L009 subsumption runs full containment tests; skip rules with more
  /// body atoms than this.
  size_t subsumption_max_atoms = 8;
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

/// True when `text` reads as a cqac_shell script — its first effective
/// (non-blank, non-comment) line starts with a kShellCommands word — rather
/// than a plain '.'-terminated rule program.
bool LooksLikeShellScript(const std::string& text);

/// Lints raw file text the way the `cqac_lint` CLI and the serve `lint` op
/// do: cqac_shell scripts (auto-detected via LooksLikeShellScript) have the
/// rule text of their view/query/fact/contained/explain lines extracted and
/// every diagnostic remapped to its original line and column; plain
/// programs parse with recovery. Parse errors come out first as P001 error
/// diagnostics in input order, followed by the lint diagnostics.
std::vector<LintDiagnostic> LintFileText(const std::string& text,
                                         const LintOptions& options = {});

}  // namespace cqac

#endif  // CQAC_ANALYSIS_LINT_H_
