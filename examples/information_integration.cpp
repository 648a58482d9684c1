// Information integration: the car-dealer scenario of Section 4.1, extended
// with the arithmetic comparisons that motivate the paper.
//
// Three autonomous sources export views over a global schema
//   car(Car, Dealer), loc(Dealer, Place), price(Car, Price)
// and a user asks for cars under a price threshold. Sources expose
// different fragments (one hides the dealer, one pre-filters by price), so
// AC-aware rewriting decides which sources can answer and what residual
// comparisons each needs.
//
// Build & run:  ./build/examples/information_integration
#include <cstdio>

#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/rewriting/rewrite_lsi.h"

using namespace cqac;  // NOLINT — example brevity

int main() {
  EngineContext ctx;  // budget, decision memo and counters for every call

  // Global-schema query: cars located in 'irvine' cheaper than 30 (x1000$).
  Query q = MustParseQuery(
      "q(C) :- car(C, D), loc(D, irvine), price(C, P), P < 30");

  // Source descriptions (local-as-view):
  //  * dealers_web: joins cars to places but hides the dealer;
  //  * budget_cars: pre-filtered price list, only cars under 25;
  //  * pricing_api: full price list, price exposed;
  //  * luxury_cars: cars priced above 80 — unusable for this query.
  ViewSet sources(MustParseRules(
      "dealers_web(C, L) :- car(C, D), loc(D, L).\n"
      "budget_cars(C) :- price(C, P), P < 25.\n"
      "pricing_api(C, P) :- price(C, P).\n"
      "luxury_cars(C) :- price(C, P), P > 80."));

  std::printf("Query:   %s\nSources:\n%s\n\n", q.ToString().c_str(),
              sources.ToString().c_str());

  Result<UnionQuery> mcr = RewriteLsiQuery(ctx, q, sources);
  if (!mcr.ok()) {
    std::fprintf(stderr, "rewriting failed: %s\n",
                 mcr.status().ToString().c_str());
    return 1;
  }
  std::printf("Maximally-contained rewriting (%zu plans, %zu MCDs):\n%s\n\n",
              mcr.value().disjuncts.size(),
              static_cast<size_t>(ctx.stats().rewrite_mcds),
              mcr.value().ToString().c_str());

  // A small integrated world: the sources are materialized from it, then
  // forgotten — the mediator sees only the view instance.
  Database world =
      Database::FromFacts(
          "car(camry, d1). car(accord, d1). car(model3, d2). "
          "car(phantom, d3). "
          "loc(d1, irvine). loc(d2, irvine). loc(d3, losangeles). "
          "price(camry, 28). price(accord, 24). price(model3, 45). "
          "price(phantom, 400).")
          .value();
  Database view_instance = MaterializeViews(ctx, sources, world).value();

  Relation certain = EvaluateUnion(ctx, mcr.value(), view_instance).value();
  Relation truth = EvaluateQuery(ctx, q, world).value();

  std::printf("Answers via sources:");
  for (const Tuple& t : certain) std::printf(" %s", TupleToString(t).c_str());
  std::printf("\nGround truth       :");
  for (const Tuple& t : truth) std::printf(" %s", TupleToString(t).c_str());
  std::printf(
      "\n\nEvery source-derived answer is correct (contained rewriting). "
      "Answers may be missing only when no source combination can certify "
      "them.\n");
  return 0;
}
