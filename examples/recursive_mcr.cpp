// Recursive maximally-contained rewritings (Example 1.2 / Section 5).
//
// When the views hide the variables a query's comparisons constrain, no
// finite union of conjunctive rewritings is maximally contained: ever-longer
// chains of views (the P_k family) each contribute answers no shorter chain
// finds. The Figure-4 algorithm produces a recursive Datalog program that
// covers them all.
//
// Build & run:  ./build/examples/recursive_mcr
#include <cstdio>

#include "src/eval/evaluate.h"
#include "src/gen/paper_workloads.h"
#include "src/ir/parser.h"
#include "src/rewriting/si_mcr.h"

using namespace cqac;  // NOLINT — example brevity

namespace {

// A base database whose only query witness is the exact P_k pattern: a
// chain 9 -> (interior values in (4,6)) -> 3 of length 2k+2.
Database ChainDatabase(int k) {
  Database db;
  const int n = 2 * k + 2;
  for (int i = 0; i < n; ++i) {
    auto val = [n](int j) {
      if (j == 0) return Rational(9);
      if (j == n) return Rational(3);
      return Rational(4 * (n + 1) + 2 * j, n + 1);
    };
    Status st = db.Insert("e", {Value(val(i)), Value(val(i + 1))});
    if (!st.ok()) std::abort();
  }
  return db;
}

}  // namespace

int main() {
  EngineContext ctx;  // budget, decision memo and counters for every call
  Query q = workloads::Example12Query();
  ViewSet views = workloads::Example12Views();
  std::printf("Query: %s\nViews:\n%s\n\n", q.ToString().c_str(),
              views.ToString().c_str());

  // ---- The recursive Datalog MCR (Figure 4). ------------------------------
  Result<SiMcr> mcr = RewriteSiQueryDatalog(ctx, q, views);
  if (!mcr.ok()) {
    std::fprintf(stderr, "MCR construction failed: %s\n",
                 mcr.status().ToString().c_str());
    return 1;
  }
  std::printf("Recursive Datalog MCR (%zu rules):\n%s\n\n",
              mcr.value().rules.size(), mcr.value().ToString().c_str());

  datalog::Engine engine = mcr.value().MakeEngine();

  // ---- Demonstrate that finite unions fall short. --------------------------
  std::printf("%-6s %-14s %-18s %-14s\n", "k", "P_k fires?",
              "best shorter P_j?", "Datalog MCR?");
  for (int k = 0; k <= 5; ++k) {
    Database db = ChainDatabase(k);
    Database vdb = MaterializeViews(ctx, views, db).value();

    bool pk =
        !EvaluateQuery(ctx, workloads::Example12Pk(k), vdb).value().empty();
    bool shorter = false;
    for (int j = 0; j < k; ++j)
      if (!EvaluateQuery(ctx, workloads::Example12Pk(j), vdb).value().empty())
        shorter = true;
    Result<Relation> rec = engine.Query(vdb);
    if (!rec.ok()) {
      std::fprintf(stderr, "engine failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    std::printf("%-6d %-14s %-18s %-14s\n", k, pk ? "yes" : "no",
                shorter ? "yes" : "no (as claimed)",
                !rec.value().empty() ? "yes" : "NO (bug!)");
  }
  std::printf(
      "\nEach deeper chain needs a longer P_k, yet the single recursive\n"
      "program answers all of them: the MCR lives in Datalog, not in any\n"
      "finite union of CQACs (Proposition 5.1).\n");
  return 0;
}
