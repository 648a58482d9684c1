// Materialized-view answering for a query optimizer (Section 3 / the
// query-optimization motivation of the introduction).
//
// A warehouse has materialized several aggregate-free views with range
// filters. For each incoming query the optimizer asks: can it be answered
// *equivalently* from the materialized views alone (no base-table access),
// or only partially (a maximally-contained plan)?
//
// Build & run:  ./build/examples/view_selection
#include <cstdio>

#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/rewriting/er_search.h"
#include "src/rewriting/rewrite_lsi.h"

using namespace cqac;  // NOLINT — example brevity

namespace {

void Analyze(const std::string& label, const Query& q, const ViewSet& views) {
  std::printf("---- %s\n  query: %s\n", label.c_str(), q.ToString().c_str());
  EngineContext ctx;  // one context per analyzed query
  Result<ErResult> er = FindEquivalentRewriting(ctx, q, views);
  if (!er.ok()) {
    std::printf("  error: %s\n", er.status().ToString().c_str());
    return;
  }
  if (er.value().single.has_value()) {
    std::printf("  EQUIVALENT single-plan rewriting:\n    %s\n",
                er.value().single->ToString().c_str());
    return;
  }
  if (er.value().union_er.has_value()) {
    std::printf("  EQUIVALENT as a union of %zu plans:\n",
                er.value().union_er->disjuncts.size());
    for (const Query& d : er.value().union_er->disjuncts)
      std::printf("    %s\n", d.ToString().c_str());
    return;
  }
  Result<UnionQuery> mcr = RewriteLsiQuery(ctx, q, views);
  if (mcr.ok() && !mcr.value().empty()) {
    std::printf("  no equivalent plan; maximally-contained plan (%zu CRs):\n",
                mcr.value().disjuncts.size());
    for (const Query& d : mcr.value().disjuncts)
      std::printf("    %s\n", d.ToString().c_str());
  } else {
    std::printf("  views cannot answer this query at all\n");
  }
}

}  // namespace

int main() {
  // Materialized views over sales(Item, Store, Amount) and
  // stores(Store, Region):
  ViewSet mviews(MustParseRules(
      "small_sales(I, S, A) :- sales(I, S, A), A < 100.\n"
      "large_sales(I, S, A) :- sales(I, S, A), 100 <= A.\n"
      "west_stores(S) :- stores(S, west).\n"
      "sales_by_region(I, R, A) :- sales(I, S, A), stores(S, R)."));
  std::printf("Materialized views:\n%s\n\n", mviews.ToString().c_str());

  // Q1 is covered exactly by one view with a residual filter.
  Analyze("Q1: cheap sales",
          MustParseQuery("q(I, A) :- sales(I, S, A), A < 50"), mviews);

  // Q2 needs the union of the two partitions to be equivalent.
  Analyze("Q2: all sales",
          MustParseQuery("q(I, A) :- sales(I, S, A), A < 100000"), mviews);

  // Q3 joins across views; equivalent via composition.
  Analyze("Q3: cheap west-coast sales",
          MustParseQuery(
              "q(I) :- sales(I, S, A), stores(S, west), A < 100"),
          mviews);

  // Q4 asks for the full store directory, but only the west region was
  // materialized: no equivalent plan exists, only the contained plan that
  // returns the west stores.
  Analyze("Q4: store directory",
          MustParseQuery("q(S, R) :- stores(S, R)"), mviews);
  return 0;
}
