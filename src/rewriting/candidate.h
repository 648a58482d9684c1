// What the finite-union rewriters share. RewriteLsiQuery (Figure 2),
// BucketRewrite and RewriteAllDistinguished (Theorem 3.2) differ only in how
// they generate candidate rewritings; each keeps a candidate iff its
// expansion is contained in the query (Definition 2.1). Everything around
// that generation lives here, once:
//
//   * PrepareQuery / PrepareViews — the preprocessed inputs (an inconsistent
//     query has the empty union as its MCR; inconsistent views are skipped);
//   * VerifyCandidate — the accept step: expand over the views, Preprocess
//     (an inconsistent expansion is a reject), then IsContained;
//   * UnionCollector — the accepted candidates in order, exact-text
//     duplicates dropped, witnesses kept parallel to the disjuncts;
//   * MapSubgoals — per query subgoal, the view subgoals it maps onto;
//   * VerifyProduct — the budgeted cartesian product over those mappings,
//     verified in fixed-size blocks over the context's task pool.
#ifndef CQAC_REWRITING_CANDIDATE_H_
#define CQAC_REWRITING_CANDIDATE_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/base/function_ref.h"
#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/substitution.h"
#include "src/ir/view.h"
#include "src/rewriting/witness.h"

namespace cqac {

/// Preprocesses the query of a rewriting request. An inconsistent query has
/// the empty union as its MCR: that is reported as nullopt. A non-null
/// `witness` is reset and records the prepared query.
Result<std::optional<Query>> PrepareQuery(const Query& q,
                                          RewritingWitness* witness);

/// Preprocesses `views`, skipping inconsistent ones (they are always empty).
/// A non-null `witness` records the prepared views.
Result<ViewSet> PrepareViews(const ViewSet& views, RewritingWitness* witness);

/// The accept step: true iff `candidate`, expanded over `views` and
/// preprocessed, is contained in the prepared `query`. An inconsistent
/// expansion is a reject: it denotes the empty query, vacuously contained
/// but useless. Every reject bumps rewrite_verified_rejects. A non-null
/// `witness` receives the evidence for an accepted candidate; the check
/// then bypasses the decision cache.
Result<bool> VerifyCandidate(EngineContext& ctx, const Query& candidate,
                             const Query& query, const ViewSet& views,
                             ContainmentWitness* witness);

/// What verifying one unit of candidates (an MCD cover, a product pick)
/// yields, for a merge in unit order.
struct CandidateOutcome {
  Status error = Status::OK();
  /// `error` is a budget charge the unit ran past. The serial merge counts
  /// it in budget_exhaustions, so the count does not depend on which units
  /// a parallel pass computed twice.
  bool over_budget = false;
  std::vector<Query> accepted;
  std::vector<ContainmentWitness> witnesses;  // parallel to `accepted`
};

/// The union of accepted candidates in the order they are added. Exact-text
/// duplicates are dropped; with a non-null `witness`, each kept disjunct's
/// evidence goes to witness->disjuncts.
class UnionCollector {
 public:
  explicit UnionCollector(RewritingWitness* witness) : witness_(witness) {}

  /// Moves `outcome`'s accepted candidates (and witnesses) into the union.
  void Add(CandidateOutcome& outcome);

  UnionQuery Take() { return std::move(union_); }

 private:
  RewritingWitness* witness_;
  UnionQuery union_;
  std::unordered_set<std::string> seen_;
};

/// One query subgoal mapped onto a subgoal of view `view_index`.
struct SubgoalMapping {
  int view_index;
  VarMap phi;                           // query var -> view var / constant
  std::map<int, Value> const_bindings;  // view var -> query constant
};

/// Fills `choices` with, per subgoal of `q`, every view subgoal it maps onto
/// (views in order, then their subgoals): distinguished query variables must
/// land on distinguished view variables or constants, and a query constant
/// may only meet a constant or bind a distinguished view variable. These are
/// the bucket algorithm's buckets; with every view variable distinguished,
/// Theorem 3.2's choices. Returns false at the first subgoal that maps
/// nowhere (`q` then has no rewriting); `choices` ends with its empty list.
bool MapSubgoals(const Query& q, const ViewSet& views,
                 std::vector<std::vector<SubgoalMapping>>* choices);

using PickVerifier =
    FunctionRef<CandidateOutcome(const std::vector<const SubgoalMapping*>&)>;

/// Walks the cartesian product of `choices`, the last subgoal advancing
/// fastest. Picks are generated serially, each charged to
/// Budget::max_mappings (`exhausted` is the ResourceExhausted message) and
/// the deadline (`deadline_what` names the step) and counted in
/// rewrite_candidates. `verify` then runs over each block of 64 picks on the
/// task pool, and the outcomes merge into `out` in pick order. The block
/// size does not depend on the thread count, so neither does the point
/// where the budget runs out.
Status VerifyProduct(EngineContext& ctx,
                     const std::vector<std::vector<SubgoalMapping>>& choices,
                     const char* exhausted, const char* deadline_what,
                     PickVerifier verify, UnionCollector* out);

}  // namespace cqac

#endif  // CQAC_REWRITING_CANDIDATE_H_
