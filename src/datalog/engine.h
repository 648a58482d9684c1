// Bottom-up (semi-naive) evaluation of Datalog programs with arithmetic
// comparisons and optional Skolem (functional) head terms.
//
// The engine is the substrate for Section 5: recursive maximally-contained
// rewritings are Datalog programs, and the inverse-rule construction
// [Duschka-Genesereth] introduces Skolem terms. Skolem values are encoded as
// interned symbol constants of the form "skN(arg1,arg2,...)"; answers
// containing Skolem symbols are filtered out of query results, as usual for
// inverse-rule rewritings.
#ifndef CQAC_DATALOG_ENGINE_H_
#define CQAC_DATALOG_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/eval/database.h"
#include "src/ir/program.h"

namespace cqac {
namespace datalog {

/// A Skolem assignment: rule variable -> f_{fn_id}(arg_vars...).
struct SkolemSpec {
  int fn_id;
  std::vector<int> arg_vars;  // rule variable ids; must be body-bound
};

/// A rule plus Skolem assignments for head-only variables (used by the
/// inverse-rule construction; plain rules have an empty map).
struct EngineRule {
  Rule rule;
  std::map<int, SkolemSpec> skolems;

  /// Renders the rule with f_i(...) head terms.
  std::string ToString() const;
};

/// Resource limits for evaluation.
struct EvalOptions {
  size_t max_iterations = 1000000;
  size_t max_tuples = 50000000;  // total derived tuples across predicates
};

/// Returns true iff `v` is a Skolem-encoded symbol.
bool IsSkolemValue(const Value& v);

/// Fixpoint evaluator for one program over one extensional database.
class Engine {
 public:
  /// A plain program (no Skolems).
  explicit Engine(const Program& program);

  /// A program whose rules may carry Skolem specs. `query_predicate` selects
  /// the answer relation.
  Engine(std::vector<EngineRule> rules, std::string query_predicate);

  /// Runs to fixpoint over `edb`; returns the database of all derived IDB
  /// relations. ResourceExhausted if limits hit before fixpoint.
  Result<Database> Evaluate(const Database& edb,
                            const EvalOptions& options = {}) const;

  /// Evaluates and returns the query predicate's relation with
  /// Skolem-containing tuples removed (the certain-answer convention).
  Result<Relation> Query(const Database& edb,
                         const EvalOptions& options = {}) const;

  const std::vector<EngineRule>& rules() const { return rules_; }
  const std::string& query_predicate() const { return query_predicate_; }

 private:
  /// Validates rule safety (every head variable body-bound or Skolemized).
  Status ValidateRules() const;

  std::vector<EngineRule> rules_;
  std::string query_predicate_;
};

}  // namespace datalog
}  // namespace cqac

#endif  // CQAC_DATALOG_ENGINE_H_
