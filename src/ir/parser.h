// Parser for the textual Datalog-with-comparisons syntax.
//
// Grammar (one rule):
//   rule       := atom ":-" item ("," item)* "."?
//   item       := atom | comparison
//   atom       := IDENT "(" [ term ("," term)* ] ")"
//   comparison := term OP term          OP in { <, <=, >, >=, = }
//   term       := VARIABLE | NUMBER | SYMBOL
//
// Conventions: identifiers beginning with an upper-case letter or '_' are
// variables; lower-case identifiers are symbolic constants (inside atoms) or
// predicate names (in atom position). Numbers may be integers, decimals
// ("3.25") or fractions ("7/2"); all are parsed as exact rationals.
// `>` and `>=` are normalized by swapping sides, so parsed queries only
// contain <, <= and = comparisons.
//
// A fact is a rule with no body: `r(1, 2).`
//
// Every parse error message carries a 1-based line:col position. The
// *_WithInfo entry points additionally return source spans for each rule's
// head, body atoms, comparisons, and variable first uses, and
// ParseProgramWithDiagnostics recovers after an error (skipping to the next
// '.') so that one pass reports every parse error in a file, not just the
// first.
#ifndef CQAC_IR_PARSER_H_
#define CQAC_IR_PARSER_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ir/query.h"
#include "src/ir/source_location.h"

namespace cqac {

/// Source spans of one parsed rule, parallel to the Query structure.
struct QuerySourceInfo {
  SourceSpan rule;                       // the whole rule
  SourceSpan head;                       // the head atom
  std::vector<SourceSpan> body;          // one per body atom, in order
  std::vector<SourceSpan> comparisons;   // one per comparison, in order
  std::vector<SourceSpan> var_first_use; // one per variable id
};

/// A parsed rule plus where its parts came from.
struct ParsedQuery {
  Query query;
  QuerySourceInfo info;
};

/// One recovered parse error.
struct ParseDiagnostic {
  SourceSpan span;
  std::string message;
};

/// The result of parsing a whole program with error recovery.
struct ParsedProgram {
  std::vector<ParsedQuery> rules;       // every rule that parsed cleanly
  std::vector<ParseDiagnostic> errors;  // every parse error, in input order

  bool ok() const { return errors.empty(); }
};

/// Parses a single rule/query. Fails on trailing input beyond one rule.
Result<Query> ParseQuery(const std::string& text);

/// Parses a single rule/query with source spans.
Result<ParsedQuery> ParseQueryWithInfo(const std::string& text);

/// Parses a sequence of '.'-terminated rules (the final '.' may be omitted).
/// Blank lines and `%`-to-end-of-line comments are ignored. Stops at the
/// first error.
Result<std::vector<Query>> ParseRules(const std::string& text);

/// Parses a whole program, recovering at the next '.' after each error so
/// every parse error in the input is reported (with line:col), not just the
/// first. A character outside the grammar is such an error, spanning that
/// character. Rules that parse cleanly are returned alongside the errors.
ParsedProgram ParseProgramWithDiagnostics(const std::string& text);

/// Convenience for tests: parses or aborts with the parse error message.
Query MustParseQuery(const std::string& text);

/// Convenience for tests: parses rules or aborts with the error message.
std::vector<Query> MustParseRules(const std::string& text);

}  // namespace cqac

#endif  // CQAC_IR_PARSER_H_
