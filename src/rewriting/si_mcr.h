// Section 5.4 (Figure 4): recursive Datalog MCRs for CQAC-SI queries using
// CQAC-SI views.
//
// When view variables can be nondistinguished, a maximally-contained
// rewriting may not exist as any finite union of CQACs (Proposition 5.1 /
// Example 1.2) but does exist as a Datalog program with semi-interval
// comparisons. The construction:
//   1. build Q^datalog for the query (src/containment/si_reduction.h);
//   2. turn each view into its comparison-free v^CQ form (U_{theta c} atoms);
//   3. make every U_{theta c} available as a view;
//   4. compute the Datalog MCR with the inverse-rule algorithm
//      [Duschka-Genesereth], introducing Skolem terms for nondistinguished
//      view variables;
//   5. U_{theta c} facts over *real* values are produced by domain rules
//      `U(X) :- dom(X), X theta c` — the executable counterpart of the
//      paper's step 5, which rewrites view atoms U_{theta c}(X) into the
//      comparison `X theta c`.
// The resulting program evaluates over a database whose relations are the
// view extensions; answers containing Skolem values are discarded.
#ifndef CQAC_REWRITING_SI_MCR_H_
#define CQAC_REWRITING_SI_MCR_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/datalog/engine.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/view.h"

namespace cqac {

/// Provenance of one rule of an SiMcr — which construction step emitted it
/// and (for inverse rules) from which view. The certificate checker
/// (src/analysis/certificate.h) uses this to re-validate each rule against
/// its source without guessing.
struct SiMcrRuleInfo {
  enum class Kind {
    kQueryProgram,  // part of Q^datalog (step 1)
    kInverse,       // inverse rule of one view's v^CQ (steps 2+4)
    kDomain,        // dom(X) :- v(..., X, ...) (step 5)
    kUDomain,       // U_f(X) :- dom(X), X f    (step 5)
  };
  Kind kind = Kind::kQueryProgram;
  int view_index = -1;  // index into the input ViewSet; kInverse only
};

/// A recursive Datalog MCR: rules (possibly Skolemized) evaluated over the
/// view extensions.
struct SiMcr {
  std::vector<datalog::EngineRule> rules;
  /// Per-rule provenance, parallel to `rules`.
  std::vector<SiMcrRuleInfo> rule_info;
  std::string query_predicate;

  /// Builds an engine ready to run over a view-extension database.
  datalog::Engine MakeEngine() const {
    return datalog::Engine(rules, query_predicate);
  }

  /// Renders the program, one rule per line.
  std::string ToString() const;
};

struct SiMcrOptions {
  /// Section 6 extension: accept views with arbitrary comparisons (not just
  /// semi-interval ones). The construction remains *sound* — a view's
  /// U_{theta c} facts are emitted only when its comparisons imply the
  /// bound — but the paper proves maximality only for SI views, so treat
  /// the result as a contained (possibly non-maximal) Datalog rewriting in
  /// this mode.
  bool allow_general_views = false;
};

/// Computes the Datalog MCR of the CQAC-SI query `q` using the SI-only views
/// `views` (Figure 4). Unsupported when `q` is not CQAC-SI, or when some
/// view is not SI-only and `options.allow_general_views` is off. A query
/// with unsatisfiable comparisons denotes the empty relation; its MCR is the
/// empty program (no rules). The construction itself is syntactic; the
/// context memoizes the per-view v^CQ implication checks in the
/// shared decision cache.
Result<SiMcr> RewriteSiQueryDatalog(EngineContext& ctx, const Query& q,
                                    const ViewSet& views,
                                    const SiMcrOptions& options = {});

}  // namespace cqac

#endif  // CQAC_REWRITING_SI_MCR_H_
