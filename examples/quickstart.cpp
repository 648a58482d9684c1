// Quickstart: answering a query using views with arithmetic comparisons.
//
// Reproduces Example 1.1 of the paper end to end: parse a query and views,
// compute the maximally-contained rewriting with RewriteLsiQuery, inspect
// the exportable-variable machinery that makes v1 usable (and v2 not), and
// evaluate the rewriting against materialized views.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "src/containment/containment.h"
#include "src/eval/evaluate.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

using namespace cqac;  // NOLINT — example brevity

int main() {
  // One engine context carries the budget, decision memo and counters of
  // every call below.
  EngineContext ctx;

  // ---- 1. Declare the query and the views (Example 1.1). ------------------
  Query q = MustParseQuery("q1(A) :- r(A), A < 4");
  ViewSet views(MustParseRules(
      "v1(Y, Z) :- r(X), s(Y, Z), Y <= X, X <= Z.\n"
      "v2(Y, Z) :- r(X), s(Y, Z), Y <= X, X < Z."));

  std::printf("Query:  %s\nViews:\n%s\n\n", q.ToString().c_str(),
              views.ToString().c_str());

  // ---- 2. Compute the maximally-contained rewriting (Section 4). ----------
  Result<UnionQuery> mcr = RewriteLsiQuery(ctx, q, views);
  if (!mcr.ok()) {
    std::fprintf(stderr, "rewriting failed: %s\n",
                 mcr.status().ToString().c_str());
    return 1;
  }
  std::printf("MCR (union of contained rewritings):\n%s\n\n",
              mcr.value().ToString().c_str());

  // ---- 3. Verify one rewriting symbolically. -------------------------------
  for (const Query& p : mcr.value().disjuncts) {
    Query expansion = ExpandRewriting(p, views).value();
    bool contained = IsContained(ctx, expansion, q).value();
    std::printf("  %-40s expansion contained in q1: %s\n",
                p.ToString().c_str(), contained ? "yes" : "NO (bug!)");
  }

  // ---- 4. Evaluate against materialized views. ----------------------------
  // Base data: r = {2, 9}; s = {(2,2), (9,9), (1,5)}.
  Database db = Database::FromFacts(
                    "r(2). r(9). s(2, 2). s(9, 9). s(1, 5).")
                    .value();
  Database view_instance = MaterializeViews(ctx, views, db).value();
  Relation direct = EvaluateQuery(ctx, q, db).value();
  Relation via_views = EvaluateUnion(ctx, mcr.value(), view_instance).value();

  std::printf("\nq1 over the base database:");
  for (const Tuple& t : direct) std::printf(" %s", TupleToString(t).c_str());
  std::printf("\nMCR over the view instance:");
  for (const Tuple& t : via_views)
    std::printf(" %s", TupleToString(t).c_str());
  std::printf("\n(The rewriting computes a sound subset of the answers —"
              " here the tuple (2): r(2) with s(2,2) witnesses it.)\n");
  return 0;
}
