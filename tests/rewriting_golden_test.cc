// Golden for the finite-union rewriters: RewriteLsiQuery, BucketRewrite
// (AC-aware and AC-blind), RewriteAllDistinguished and
// FindEquivalentRewriting over a seeded src/gen corpus that walks the
// comparison-class lattice, with views at distinguished_prob 0.7 and 1.0,
// plus one tight-max_mappings case per candidate enumerator.
//
// Each line of tests/golden/rewriting.expected holds one call's union text
// (or its status) and that call's rewrite_candidates,
// rewrite_verified_rejects, containment_calls and budget_exhaustions deltas
// at threads=0. The LSI and bucket witness paths also record the disjunct
// count and the certificate checker's verdict. The results must be the same
// at threads=4, and so must the counters of the tight bucket and
// all-distinguished cases: a block the budget cuts short is never verified,
// at any thread count. On a mismatch the test prints its whole rendering,
// which is how the expected file is produced.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/certificate.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/rewriting/all_distinguished.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/er_search.h"
#include "src/rewriting/rewrite_lsi.h"

namespace cqac {
namespace {

constexpr gen::AcMode kModes[] = {gen::AcMode::kNone,  gen::AcMode::kLsi,
                                  gen::AcMode::kRsi,   gen::AcMode::kSi,
                                  gen::AcMode::kCqacSi, gen::AcMode::kGeneral};
constexpr const char* kModeNames[] = {"none", "lsi",    "rsi",
                                      "si",   "cqacsi", "general"};

struct Workload {
  std::string name;
  Query q;
  ViewSet views;
};

// 2 distinguished probabilities x 6 query classes x 3 view classes.
std::vector<Workload> Corpus() {
  std::vector<Workload> out;
  uint64_t seed = 18000;
  for (double dprob : {0.7, 1.0}) {
    for (int qm = 0; qm < 6; ++qm) {
      for (int k = 0; k < 3; ++k) {
        const int vm = (qm + k) % 6;
        Rng rng(++seed);
        gen::QuerySpec qspec;
        qspec.num_subgoals = static_cast<int>(rng.Uniform(2, 3));
        qspec.num_predicates = 2;
        qspec.num_vars = 4;
        qspec.ac_density = 0.7;
        qspec.ac_mode = kModes[qm];
        qspec.const_min = 2;
        qspec.const_max = 9;
        qspec.boolean_head = rng.Chance(0.3);
        Query q = gen::RandomQuery(rng, qspec, "q");

        gen::ViewSpec vspec;
        vspec.num_views = static_cast<int>(rng.Uniform(2, 4));
        vspec.max_subgoals = 2;
        vspec.distinguished_prob = dprob;
        vspec.ac_density = 0.5;
        vspec.ac_mode = kModes[vm];
        vspec.const_min = 2;
        vspec.const_max = 9;
        ViewSet views = gen::RandomViewsForQuery(rng, q, vspec);
        out.push_back({StrCat("seed ", seed, " ", kModeNames[qm], "/",
                              kModeNames[vm], " d=", dprob),
                       std::move(q), std::move(views)});
      }
    }
  }
  return out;
}

ViewSet Views(const std::vector<std::string>& texts) {
  ViewSet views;
  for (const std::string& t : texts) {
    Status st = views.Add(MustParseQuery(t));
    EXPECT_TRUE(st.ok()) << st;
  }
  return views;
}

// One line per result: disjuncts are separated by " ; ".
std::string Flat(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n')
      out += " ; ";
    else
      out += c;
  }
  return out;
}

std::string Render(const Result<UnionQuery>& r) {
  if (!r.ok()) return StrCat("error ", r.status().ToString());
  if (r.value().disjuncts.empty()) return "empty";
  return Flat(r.value().ToString());
}

std::string RenderWitnessed(const Query& q, const ViewSet& views,
                            const Result<UnionQuery>& r,
                            const RewritingWitness& w) {
  if (!r.ok()) return StrCat("error ", r.status().ToString());
  Status verdict = CheckRewritingWitness(q, views, r.value(), w);
  return StrCat(r.value().disjuncts.size(), " disjuncts, ",
                w.disjuncts.size(), " witnesses, check ",
                verdict.ToString());
}

std::string RenderEr(const Result<ErResult>& r) {
  if (!r.ok()) return StrCat("error ", r.status().ToString());
  if (r.value().single.has_value())
    return StrCat("single ", r.value().single->ToString());
  if (r.value().union_er.has_value())
    return StrCat("union ", Render(*r.value().union_er));
  return "none";
}

struct Case {
  std::string label;
  Budget budget;
  std::function<std::string(EngineContext&)> call;
  // The counters, not only the result, must match at threads=4.
  bool same_counters = false;
};

void AddCalls(const std::string& name, const Query& q, const ViewSet& views,
              const Budget& budget, std::vector<Case>* cases) {
  cases->push_back({name + " lsi", budget, [q, views](EngineContext& ctx) {
                      return Render(RewriteLsiQuery(ctx, q, views));
                    }});
  cases->push_back(
      {name + " lsi-witness", budget, [q, views](EngineContext& ctx) {
         RewritingWitness w;
         Result<UnionQuery> r = RewriteLsiQuery(ctx, q, views, {}, nullptr, &w);
         return RenderWitnessed(q, views, r, w);
       }});
  cases->push_back({name + " bucket", budget, [q, views](EngineContext& ctx) {
                      return Render(BucketRewrite(ctx, q, views));
                    }});
  cases->push_back(
      {name + " bucket-blind", budget, [q, views](EngineContext& ctx) {
         BucketOptions blind;
         blind.ac_aware = false;
         return Render(BucketRewrite(ctx, q, views, blind));
       }});
  cases->push_back(
      {name + " bucket-witness", budget, [q, views](EngineContext& ctx) {
         RewritingWitness w;
         Result<UnionQuery> r = BucketRewrite(ctx, q, views, {}, nullptr, &w);
         return RenderWitnessed(q, views, r, w);
       }});
  cases->push_back(
      {name + " all-distinguished", budget, [q, views](EngineContext& ctx) {
         return Render(RewriteAllDistinguished(ctx, q, views));
       }});
  cases->push_back({name + " er", budget, [q, views](EngineContext& ctx) {
                      return RenderEr(FindEquivalentRewriting(ctx, q, views));
                    }});
}

std::vector<Case> Cases() {
  std::vector<Case> cases;
  Budget corpus_budget;
  corpus_budget.max_mappings = 2000;
  for (const Workload& w : Corpus())
    AddCalls(w.name, w.q, w.views, corpus_budget, &cases);

  // Tight budgets: each enumerator runs out part-way, so the exhaustion
  // point (counters) and its message are pinned. Three subgoals with two
  // single-subgoal views each: 6 MCDs and 8 exact covers for LSI, 8 picks
  // for the bucket and all-distinguished products.
  Query q = MustParseQuery("q(A, B, C) :- p(A), p(B), p(C), A < 6.");
  ViewSet views = Views({"v1(X) :- p(X).", "v2(X) :- p(X), X < 4."});
  Budget tight;
  tight.max_mappings = 7;
  cases.push_back({"tight lsi", tight, [q, views](EngineContext& ctx) {
                     return Render(RewriteLsiQuery(ctx, q, views));
                   }});
  tight.max_mappings = 5;
  cases.push_back({"tight bucket", tight,
                   [q, views](EngineContext& ctx) {
                     return Render(BucketRewrite(ctx, q, views));
                   },
                   true});
  cases.push_back(
      {"tight all-distinguished", tight,
       [q, views](EngineContext& ctx) {
         return Render(RewriteAllDistinguished(ctx, q, views));
       },
       true});
  // Past the first block of 64 picks: 4 subgoals x 3 views = 81 picks.
  Query wide = MustParseQuery("q(A, B, C, D) :- p(A), p(B), p(C), p(D).");
  ViewSet three = Views(
      {"v1(X) :- p(X).", "v2(X) :- p(X), X < 4.", "v3(X) :- p(X), X > 2."});
  tight.max_mappings = 70;
  cases.push_back(
      {"tight bucket wide", tight,
       [wide, three](EngineContext& ctx) {
         return Render(BucketRewrite(ctx, wide, three));
       },
       true});
  cases.push_back(
      {"tight all-distinguished wide", tight,
       [wide, three](EngineContext& ctx) {
         return Render(RewriteAllDistinguished(ctx, wide, three));
       },
       true});
  return cases;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Runs one case in a fresh context on `pool`; `*counters` receives the
// call's counter deltas as the golden renders them.
std::string RunCase(const Case& c, TaskPool* pool, std::string* counters) {
  EngineContext ctx(c.budget);
  ctx.set_task_pool(pool);
  const StatsSnapshot before = ctx.stats().Snapshot();
  std::string result = c.call(ctx);
  const StatsSnapshot d = ctx.stats().Snapshot() - before;
  *counters = StrCat("[candidates ", d.rewrite_candidates, ", rejects ",
                     d.rewrite_verified_rejects, ", containment ",
                     d.containment_calls, ", exhaustions ",
                     d.budget_exhaustions, "]");
  return result;
}

TEST(RewritingGoldenTest, MatchesExpectedAtEveryThreadCount) {
  const std::vector<Case> cases = Cases();
  std::vector<std::string> serial, serial_counters(cases.size());
  std::string rendering;
  {
    TaskPool pool(0);
    for (size_t i = 0; i < cases.size(); ++i) {
      std::string result = RunCase(cases[i], &pool, &serial_counters[i]);
      rendering += StrCat(cases[i].label, ": ", result, " ",
                          serial_counters[i], "\n");
      serial.push_back(std::move(result));
    }
  }
  {
    TaskPool pool(4);
    for (size_t i = 0; i < cases.size(); ++i) {
      std::string counters;
      EXPECT_EQ(RunCase(cases[i], &pool, &counters), serial[i])
          << cases[i].label << " diverged at threads=4";
      if (cases[i].same_counters) {
        EXPECT_EQ(counters, serial_counters[i])
            << cases[i].label << " counted differently at threads=4";
      }
    }
  }
  const std::string path =
      std::string(CQAC_SOURCE_DIR) + "/tests/golden/rewriting.expected";
  EXPECT_TRUE(rendering == ReadFile(path))
      << "the rewriting results differ from " << path << "; they render as:\n"
      << rendering;
}

}  // namespace
}  // namespace cqac
