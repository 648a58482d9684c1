// Autofixes for the mechanical lint codes (cqac_lint --fix):
//
//   L010  comparisons force two terms equal       -> substitute and clean up
//   L008  duplicate subgoal                       -> drop the later copy
//   L006  comparison implied by the remaining ones -> drop it
//
// Each rewrite applies one finding of the linter's own finders (lint.h:
// FindForcedEqualities, FindDuplicateSubgoals, FindRedundantComparisons,
// behind the same GateComparisons), so --fix changes exactly what the
// linter reports. Fixes are applied greedily to a fixpoint, one rewrite at
// a time, in the order L010 -> L008 -> L006: substitution (L010) routinely
// *creates* duplicate subgoals and redundant comparisons, which the later
// rewrites then remove. Every individual rewrite preserves logical
// equivalence, so the fixed rule denotes the same relation on every
// database.
//
// The fixer reads a file with the linter's reader (ReadCqacText) and edits
// its text surgically: only the byte range of a rule that actually changed
// is replaced (with the rule reserialized canonically); comments, blank
// lines, terminators and everything around the rule are kept verbatim.
// Fixing around unparsed text is not safe, so a plain program with a parse
// error is returned unchanged, and so is every script line with one.
#ifndef CQAC_ANALYSIS_FIX_H_
#define CQAC_ANALYSIS_FIX_H_

#include <string>
#include <vector>

#include "src/ir/query.h"

namespace cqac {

/// One applied rewrite.
struct FixEdit {
  std::string code;     // "L006", "L008" or "L010"
  int rule_index = 0;   // rule ordinal in the file (0-based)
  std::string message;  // human-readable description of the rewrite

  std::string ToString() const;
};

/// The outcome of fixing one file.
struct FixResult {
  std::string text;            // fixed text (== input when nothing applied)
  std::vector<FixEdit> edits;  // applied rewrites, in application order

  bool changed() const { return !edits.empty(); }
};

/// Applies every available autofix to one rule in place. Appends a FixEdit
/// per rewrite. Returns true when anything changed.
bool FixQuery(Query* q, int rule_index, std::vector<FixEdit>* edits);

/// Fixes a whole file (plain rule program or cqac_shell script), read
/// with ReadCqacText like LintFileText; rule numbers match the linter's.
FixResult FixFileText(const std::string& text);

}  // namespace cqac

#endif  // CQAC_ANALYSIS_FIX_H_
