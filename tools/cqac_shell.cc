// cqac_shell — a scriptable command shell over the cqac library.
//
// Reads commands from a script file (argv[1]) or stdin. One command per
// line; `%` starts a comment. Rules/facts use the library's Datalog syntax.
//
//   view <rule>            declare a view
//   query <rule>           set the current query
//   fact <atom>            add a tuple to the base database (materialized
//                          views update incrementally, src/ivm)
//   retract <atom>         remove a tuple from the base database
//   classify               print the query's comparison class
//   rewrite                print the MCR (auto-dispatches: LSI/RSI ->
//                          RewriteLSIQuery; CQAC-SI + SI views -> recursive
//                          Datalog; otherwise bucket)
//   er                     search for an equivalent rewriting
//   minimize               minimize the current query
//   eval                   evaluate the query over the base database
//   answers                certain answers: materialize views, run the MCR
//   contained <rule>       is <rule> contained in the current query?
//   explain <rule>         why <rule> is (or is not) contained in the
//                          current query: mappings and implied comparisons
//   intervals              print the interval each query variable is
//                          confined to by the query's comparisons
//   lint                   run the semantic linter over the views + query
//   verify                 recompute the rewriting with witnesses and
//                          re-validate it with the certificate checker
//   audit                  run the whole-program audit pass: every engine
//                          result re-proved by independent reference
//                          procedures (src/analysis/audit)
//   plan                   print the planner's cost decisions for the
//                          current query: class-dictated algorithm, join
//                          atom order over the base facts, union-eval
//                          strategy, and the adaptive calibration state
//   stats                  print engine counters (cache hits, budgets, ...)
//   save <dir>             write the session (views, facts, materialized
//                          views, calibration) as a durable snapshot file
//   load <dir>             restore a session saved with `save` — no
//                          rematerialization, the snapshot carries the
//                          maintained state (src/store)
//   reset                  clear all state
//   help                   print the command words (lint's kShellCommands)
//
// Exit status is nonzero if any command failed (parse error, engine error),
// making scripts usable as smoke tests.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/audit/audit.h"
#include "src/analysis/certificate.h"
#include "src/analysis/lint.h"
#include "src/base/strings.h"
#include "src/containment/containment.h"
#include "src/constraints/intervals.h"
#include "src/containment/explain.h"
#include "src/containment/minimize.h"
#include "src/eval/evaluate.h"
#include "src/ir/expansion.h"
#include "src/ir/parser.h"
#include "src/ivm/maintain.h"
#include "src/plan/planner.h"
#include "src/rewriting/answer.h"
#include "src/rewriting/bucket.h"
#include "src/rewriting/er_search.h"
#include "src/rewriting/rewrite_lsi.h"
#include "src/rewriting/si_mcr.h"
#include "src/store/snapshot.h"

namespace cqac {
namespace {

class Shell {
 public:
  // `pool` (optional, not owned) fans engine loops out across its workers.
  explicit Shell(TaskPool* pool = nullptr) : pool_(pool) {
    ctx_->set_task_pool(pool_);
    state_.name = "shell";
  }

  // Returns false when any command failed.
  bool Run(std::istream& in) {
    std::string line;
    bool ok = true;
    while (std::getline(in, line)) {
      line = Strip(line);
      if (line.empty() || line[0] == '%') continue;
      if (!Dispatch(line)) ok = false;
    }
    return ok;
  }

 private:
  bool Fail(const std::string& msg) {
    std::printf("error: %s\n", msg.c_str());
    return false;
  }

  bool Dispatch(const std::string& line) {
    std::string cmd = line.substr(0, line.find(' '));
    std::string rest =
        Strip(line.size() > cmd.size() ? line.substr(cmd.size()) : "");
    if (cmd == "help") return Help();
    if (cmd == "reset") {
      *this = Shell(pool_);
      std::printf("ok: state cleared\n");
      return true;
    }
    if (cmd == "view") return Apply(store::RecordType::kView, rest);
    if (cmd == "query") return SetQuery(rest);
    if (cmd == "fact") return Apply(store::RecordType::kFact, rest);
    if (cmd == "retract") return Apply(store::RecordType::kRetract, rest);
    if (cmd == "classify") return Classify();
    if (cmd == "rewrite") return Rewrite();
    if (cmd == "er") return FindEr();
    if (cmd == "minimize") return Minimize();
    if (cmd == "eval") return Evaluate();
    if (cmd == "answers") return CertainAnswers();
    if (cmd == "contained") return Contained(rest);
    if (cmd == "lint") return Lint();
    if (cmd == "verify") return Verify();
    if (cmd == "audit") return Audit();
    if (cmd == "explain") return Explain(rest);
    if (cmd == "plan") return PlanCmd();
    if (cmd == "intervals") return Intervals();
    if (cmd == "stats") return Stats();
    if (cmd == "save") return Save(rest);
    if (cmd == "load") return Load(rest);
    return Fail("unknown command '" + cmd + "' (try: help)");
  }

  // The command words are lint's kShellCommands, the list script
  // auto-detection keys on (lint_test checks Dispatch against it).
  bool Help() {
    std::string line = "commands:";
    for (std::string_view cmd : kShellCommands) {
      if (line.size() + cmd.size() > 72) {
        std::printf("%s\n", line.c_str());
        line = "         ";
      }
      line += StrCat(" ", cmd);
    }
    std::printf("%s\n", line.c_str());
    return true;
  }

  bool Stats() {
    std::printf("%s\n", ctx_->ToString().c_str());
    return true;
  }

  // `view`, `fact` and `retract`: the session state change the server and
  // WAL replay run too (store::SessionState::Apply), all-or-nothing. A new
  // view is materialized over the current base, so later facts only pay
  // for their deltas.
  bool Apply(store::RecordType type, const std::string& text) {
    Result<ivm::ApplySummary> s = state_.Apply(*ctx_, type, text);
    if (!s.ok()) return Fail(s.status().ToString());
    if (type == store::RecordType::kView)
      std::printf("ok: view %s\n",
                  state_.views[state_.views.size() - 1].ToString().c_str());
    return true;
  }

  bool SetQuery(const std::string& text) {
    Result<ParsedQuery> q = ParseQueryWithInfo(text);
    if (!q.ok()) return Fail(q.status().ToString());
    Status st = q.value().query.Validate();
    if (!st.ok()) return Fail(st.ToString());
    query_source_ = std::move(q).value();
    query_ = query_source_.query;
    have_query_ = true;
    std::printf("ok: query %s\n", query_.ToString().c_str());
    return true;
  }

  bool NeedQuery() {
    if (!have_query_) {
      Fail("no query set (use: query <rule>)");
      return false;
    }
    return true;
  }

  bool Classify() {
    if (!NeedQuery()) return false;
    std::printf("class: %s%s\n", AcClassName(query_.Classify()),
                query_.IsCqacSi() && !query_.IsConjunctiveOnly()
                    ? " (CQAC-SI)"
                    : "");
    return true;
  }

  bool Rewrite() {
    if (!NeedQuery()) return false;
    const ViewSet& views = state_.views;
    const RewriteAlgorithm algorithm = ChooseRewriteAlgorithm(query_, views);
    if (algorithm == RewriteAlgorithm::kSiDatalog) {
      Result<SiMcr> mcr = RewriteSiQueryDatalog(*ctx_, query_, views);
      if (!mcr.ok()) return Fail(mcr.status().ToString());
      std::printf("recursive datalog mcr (%zu rules):\n%s\n",
                  mcr.value().rules.size(), mcr.value().ToString().c_str());
      return true;
    }
    const bool lsi = algorithm == RewriteAlgorithm::kLsiMcr;
    Result<UnionQuery> mcr = lsi ? RewriteLsiQuery(*ctx_, query_, views)
                                 : BucketRewrite(*ctx_, query_, views);
    if (!mcr.ok()) return Fail(mcr.status().ToString());
    last_mcr_ = std::move(mcr).value();
    have_mcr_ = !last_mcr_.empty();
    std::printf(lsi ? "mcr (%zu contained rewritings):\n%s\n"
                    : "contained rewritings (bucket, %zu):\n%s\n",
                last_mcr_.disjuncts.size(), last_mcr_.ToString().c_str());
    return true;
  }

  bool FindEr() {
    if (!NeedQuery()) return false;
    Result<ErResult> er =
        FindEquivalentRewriting(*ctx_, query_, state_.views);
    if (!er.ok()) return Fail(er.status().ToString());
    if (er.value().single.has_value()) {
      std::printf("er: %s\n", er.value().single->ToString().c_str());
    } else if (er.value().union_er.has_value()) {
      std::printf("er (union of %zu):\n%s\n",
                  er.value().union_er->disjuncts.size(),
                  er.value().union_er->ToString().c_str());
    } else {
      std::printf("er: none found\n");
    }
    return true;
  }

  bool Minimize() {
    if (!NeedQuery()) return false;
    Result<Query> m = MinimizeQuery(*ctx_, query_);
    if (!m.ok()) return Fail(m.status().ToString());
    query_ = std::move(m).value();
    std::printf("minimized: %s\n", query_.ToString().c_str());
    return true;
  }

  bool Evaluate() {
    if (!NeedQuery()) return false;
    Result<Relation> r = EvaluateQuery(*ctx_, query_, state_.store.base());
    if (!r.ok()) return Fail(r.status().ToString());
    PrintRelation(r.value());
    return true;
  }

  bool CertainAnswers() {
    if (!NeedQuery()) return false;
    if (!have_mcr_) {
      if (!Rewrite()) return false;
      if (!have_mcr_) return Fail("no rewriting available");
    }
    // The store's maintained view database is exactly
    // MaterializeViews(views, base) — kept current by fact/retract, so no
    // per-command rematerialization.
    Result<Relation> r = EvaluateUnion(*ctx_, last_mcr_, state_.store.views());
    if (!r.ok()) return Fail(r.status().ToString());
    PrintRelation(r.value());
    return true;
  }

  bool Contained(const std::string& text) {
    if (!NeedQuery()) return false;
    Result<Query> p = ParseQuery(text);
    if (!p.ok()) return Fail(p.status().ToString());
    // A rule over view predicates is compared through its expansion
    // (the contained-rewriting test of Definition 2.1).
    Query candidate = std::move(p).value();
    bool uses_views = !candidate.body().empty();
    for (const Atom& a : candidate.body())
      if (state_.views.Find(a.predicate) == nullptr) uses_views = false;
    if (uses_views) {
      Result<Query> exp = ExpandRewriting(candidate, state_.views);
      if (!exp.ok()) return Fail(exp.status().ToString());
      candidate = std::move(exp).value();
    }
    Result<bool> c = IsContained(*ctx_, candidate, query_);
    if (!c.ok()) return Fail(c.status().ToString());
    std::printf("contained: %s%s\n", c.value() ? "yes" : "no",
                uses_views ? " (checked via expansion)" : "");
    return true;
  }

  // Lints every declared view plus the current query. Positions refer to
  // the rule text after the command word of the declaring line.
  bool Lint() {
    std::vector<ParsedQuery> rules = state_.view_sources;
    if (have_query_) rules.push_back(query_source_);
    if (rules.empty()) return Fail("nothing to lint (declare views/query)");
    std::vector<LintDiagnostic> diags = LintProgram(rules);
    for (const LintDiagnostic& d : diags) {
      std::string label =
          d.rule_index < static_cast<int>(state_.view_sources.size())
              ? StrCat("view #", d.rule_index + 1)
              : std::string("query");
      std::printf("%s: %s\n", label.c_str(), d.ToString().c_str());
    }
    bool clean = MaxLintSeverity(diags) != LintSeverity::kError;
    std::printf("lint: %zu diagnostic%s, %s\n", diags.size(),
                diags.size() == 1 ? "" : "s",
                clean ? "no errors" : "errors found");
    return clean;
  }

  // Recomputes the rewriting with witness recording and re-validates it with
  // the independent certificate checker.
  bool Verify() {
    if (!NeedQuery()) return false;
    const ViewSet& views = state_.views;
    const RewriteAlgorithm algorithm = ChooseRewriteAlgorithm(query_, views);
    if (algorithm == RewriteAlgorithm::kSiDatalog) {
      Result<SiMcr> mcr = RewriteSiQueryDatalog(*ctx_, query_, views);
      if (!mcr.ok()) return Fail(mcr.status().ToString());
      Status st = CheckSiMcr(query_, views, mcr.value());
      if (!st.ok()) return Fail(StrCat("certificate: ", st.ToString()));
      std::printf("certificate: valid (datalog mcr, %zu rules checked)\n",
                  mcr.value().rules.size());
      return true;
    }
    RewritingWitness w;
    Result<UnionQuery> mcr =
        algorithm == RewriteAlgorithm::kLsiMcr
            ? RewriteLsiQuery(*ctx_, query_, views, {}, nullptr, &w)
            : BucketRewrite(*ctx_, query_, views, {}, nullptr, &w);
    if (!mcr.ok()) return Fail(mcr.status().ToString());
    Status st = CheckRewritingWitness(query_, views, mcr.value(), w);
    if (!st.ok()) return Fail(StrCat("certificate: ", st.ToString()));
    std::printf("certificate: valid (%zu disjunct%s checked)\n",
                mcr.value().disjuncts.size(),
                mcr.value().disjuncts.size() == 1 ? "" : "s");
    return true;
  }

  // Runs the whole-program audit pass (src/analysis/audit) over the current
  // query, views and base facts: every applicable engine result is re-proved
  // by the independent reference procedures.
  bool Audit() {
    if (!NeedQuery()) return false;
    audit::AuditInputs in;
    in.query = query_;
    in.views = state_.views;
    in.facts = state_.store.base();
    audit::AuditReport report;
    Status st = audit::AuditAll(*ctx_, in, {}, &report);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("%s", report.ToString().c_str());
    return report.ok();
  }

  // Surfaces the planner's view of the current query without running
  // anything: the class-dictated rewriting engine, the join order direct
  // evaluation would use over the base facts, the union-eval strategy over
  // the maintained view instance, and the adaptive calibration state. The
  // output is a pure function of the declared state plus the context's
  // deterministic adaptation, so it is identical at every thread count
  // (tools/determinism.cqac exercises that).
  bool PlanCmd() {
    if (!NeedQuery()) return false;
    Result<ViewPlan> vp = PlanForQuery(*ctx_, query_, state_.views);
    if (!vp.ok()) return Fail(vp.status().ToString());
    std::printf("plan:\n%s", vp.value().plan.ToString().c_str());

    auto rows = [this](const std::string& p) {
      return state_.store.base().Get(p).size();
    };
    auto distinct = [this](const std::string& p, size_t c) {
      return state_.store.base().stats().DistinctEstimate(p, c);
    };
    plan::JoinOrderPlan jp =
        plan::PlanJoinOrder(query_, plan::Cardinalities{rows, distinct});
    plan::Decision jd = jp.ToDecision();
    jd.detail = "direct eval over base facts";
    std::printf("  %s\n", jd.ToString().c_str());

    if (vp.value().kind == PlanKind::kFiniteUnion) {
      auto vrows = [this](const std::string& p) {
        return state_.store.views().Get(p).size();
      };
      auto vdistinct = [this](const std::string& p, size_t c) {
        return state_.store.views().stats().DistinctEstimate(p, c);
      };
      const plan::Cardinalities vcards{vrows, vdistinct};
      double est = 0;
      for (const Query& d : vp.value().union_plan.disjuncts)
        est += plan::EstimateEvalCost(d, vcards);
      plan::UnionEvalChoice c = plan::ChooseUnionEval(
          *ctx_, vp.value().union_plan.disjuncts.size(), est,
          plan::UnionEvalPin::kAuto);
      std::printf("  %s\n", c.ToDecision().ToString().c_str());
    }
    std::printf("adaptive:\n%s\n", ctx_->adaptive().ToString().c_str());
    return true;
  }

  bool Explain(const std::string& text) {
    if (!NeedQuery()) return false;
    Result<Query> p = ParseQuery(text);
    if (!p.ok()) return Fail(p.status().ToString());
    Result<ContainmentExplanation> e =
        ExplainContainment(*ctx_, p.value(), query_);
    if (!e.ok()) return Fail(e.status().ToString());
    std::printf("%s\n", e.value().ToString().c_str());
    return true;
  }

  bool Intervals() {
    if (!NeedQuery()) return false;
    Result<std::map<int, VarInterval>> ivs = DeriveIntervals(query_);
    if (!ivs.ok()) return Fail(ivs.status().ToString());
    for (const auto& [var, iv] : ivs.value())
      std::printf("  %s in %s\n", query_.VarName(var).c_str(),
                  iv.ToString().c_str());
    return true;
  }

  bool Save(const std::string& dir) {
    if (dir.empty()) return Fail("usage: save <dir>");
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
      return Fail(StrCat("mkdir ", dir, ": ", std::strerror(errno)));
    store::SessionSnapshotRef ref;
    ref.name = &state_.name;
    ref.view_texts = &state_.view_texts;
    ref.store = &state_.store;
    Status st = store::WriteSnapshotFile(dir + "/shell.cqs", 0,
                                         ctx_->adaptive(), {ref});
    if (!st.ok()) return Fail(st.ToString());
    std::printf("ok: saved %zu views, %zu base tuples to %s/shell.cqs\n",
                state_.views.size(), state_.store.base().TotalTuples(),
                dir.c_str());
    return true;
  }

  bool Load(const std::string& dir) {
    if (dir.empty()) return Fail("usage: load <dir>");
    Result<store::SnapshotData> snap =
        store::ReadSnapshotFile(dir + "/shell.cqs");
    if (!snap.ok()) return Fail(snap.status().ToString());
    if (snap.value().sessions.size() != 1)
      return Fail(StrCat("expected one session in ", dir,
                         "/shell.cqs, found ",
                         snap.value().sessions.size()));
    state_ = std::move(*snap.value().sessions[0]);
    if (snap.value().has_adaptive)
      ctx_->adaptive() = snap.value().adaptive;
    std::printf("ok: loaded %zu views, %zu base tuples from %s/shell.cqs\n",
                state_.views.size(), state_.store.base().TotalTuples(),
                dir.c_str());
    return true;
  }

  static void PrintRelation(const Relation& r) {
    std::printf("answers (%zu):", r.size());
    for (const Tuple& t : r) std::printf(" %s", TupleToString(t).c_str());
    std::printf("\n");
  }

  // One engine context for the whole session: containment and implication
  // decisions are cached across commands, and `stats` reports them. Held by
  // pointer so `reset` can move-assign a fresh Shell (the context itself is
  // pinned in memory for the pool's sake and is not assignable).
  std::unique_ptr<EngineContext> ctx_ = std::make_unique<EngineContext>();
  TaskPool* pool_ = nullptr;
  // Views, their texts and the maintained base: one session, named "shell"
  // in `save` snapshots.
  store::SessionState state_;
  Query query_;
  ParsedQuery query_source_;
  bool have_query_ = false;
  UnionQuery last_mcr_;
  bool have_mcr_ = false;
};

}  // namespace
}  // namespace cqac

int main(int argc, char** argv) {
  size_t threads = 0;
  const char* script = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<size_t>(std::atoi(arg.c_str() + 10));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s (usage: %s [--threads N] [script])\n",
                   arg.c_str(), argv[0]);
      return 2;
    } else {
      script = argv[i];
    }
  }
  cqac::TaskPool pool(threads);
  cqac::Shell shell(&pool);
  if (script != nullptr) {
    std::ifstream file(script);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", script);
      return 2;
    }
    return shell.Run(file) ? 0 : 1;
  }
  return shell.Run(std::cin) ? 0 : 1;
}
