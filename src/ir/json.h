// JSON serialization of the IR (writer).
//
// Machine-readable output for tooling: the serve `rewrite` op returns its
// union of rewritings in this form next to the Datalog text, so external
// optimizers and dashboards need not parse the Datalog syntax. Hand-rolled
// writer, no external dependency; strings are escaped per RFC 8259. Import
// is intentionally out of scope — the textual Datalog syntax
// (src/ir/parser.h) is the interchange format for inputs.
#ifndef CQAC_IR_JSON_H_
#define CQAC_IR_JSON_H_

#include <string>

#include "src/ir/query.h"

namespace cqac {

/// Escapes and quotes a string for JSON.
std::string JsonQuote(const std::string& s);

/// {"disjuncts":[{"head":{...},"body":[...],"comparisons":[...]},...]}.
/// A term is {"kind":"var","name":"X"} | {"kind":"number","value":"7/2"} |
/// {"kind":"symbol","value":"red"}.
std::string UnionQueryToJson(const UnionQuery& u);

}  // namespace cqac

#endif  // CQAC_IR_JSON_H_
