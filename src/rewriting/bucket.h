// The bucket algorithm [Levy et al. 96] as a baseline (Section 4.1 discusses
// the MS algorithms; the bucket algorithm is their common ancestor).
//
// For each query subgoal, a bucket collects the view subgoals it can map to;
// candidate rewritings are elements of the buckets' cartesian product, and
// each candidate is verified by a containment check. With `ac_aware` off the
// candidate generator ignores all comparisons — the configuration used by the
// benchmark harness to demonstrate what AC-blind rewriting misses (unsound
// candidates are rejected by verification; exportable-variable rewritings are
// simply never generated).
#ifndef CQAC_REWRITING_BUCKET_H_
#define CQAC_REWRITING_BUCKET_H_

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/ir/query.h"
#include "src/ir/view.h"
#include "src/rewriting/witness.h"

namespace cqac {

struct BucketOptions {
  /// Consider the query's comparisons when forming candidates (map them onto
  /// exposed head positions). Off = the classic CQ-only bucket algorithm.
  bool ac_aware = true;
};

struct BucketStats {
  size_t bucket_entries = 0;
  size_t candidates = 0;
  size_t verified_rejects = 0;
};

/// Runs the bucket algorithm; returns the union of verified contained
/// rewritings. The cartesian-product candidate count is charged to the
/// context's Budget::max_mappings (ResourceExhausted when exceeded) and
/// verification containment checks are memoized in the context.
///
/// When `witness` is non-null, each emitted disjunct's verification evidence
/// is recorded (parallel to the returned union; the decision cache is
/// bypassed for those checks so mappings are really recomputed).
Result<UnionQuery> BucketRewrite(EngineContext& ctx, const Query& q,
                                 const ViewSet& views,
                                 const BucketOptions& options = {},
                                 BucketStats* stats = nullptr,
                                 RewritingWitness* witness = nullptr);

}  // namespace cqac

#endif  // CQAC_REWRITING_BUCKET_H_
