// cqac_shell — a scriptable command shell over the cqac library.
//
// Reads commands from a script file (argv[1]) or stdin. One command per
// line, its word and argument split at the first run of spaces or tabs
// (SplitScriptLine, src/analysis/lint.h); `%` starts a comment. Rules and
// facts use the library's Datalog syntax.
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
//   answers                certain answers: rewrite the current query over
//                          the current views and evaluate the rewriting
//                          over the maintained view database
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
//   plan                   print the planner's decisions for the current
//                          query: class-dictated algorithm and join atom
//                          order over the base facts
//   stats                  print engine counters (cache hits, budgets, ...)
//   save <dir>             write the session (views, facts, materialized
//                          views) as a durable snapshot file
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
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/audit/audit.h"
#include "src/analysis/certificate.h"
#include "src/analysis/lint.h"
#include "src/base/strings.h"
#include "src/constraints/intervals.h"
#include "src/containment/explain.h"
#include "src/containment/minimize.h"
#include "src/eval/evaluate.h"
#include "src/ir/parser.h"
#include "src/ivm/maintain.h"
#include "src/plan/planner.h"
#include "src/rewriting/answer.h"
#include "src/rewriting/er_search.h"
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
      const ScriptLine split = SplitScriptLine(line);
      if (split.command.empty()) continue;
      if (!Dispatch(split.command, std::string(split.argument))) ok = false;
    }
    return ok;
  }

 private:
  bool Fail(const std::string& msg) {
    std::printf("error: %s\n", msg.c_str());
    return false;
  }

  bool Dispatch(std::string_view cmd, const std::string& rest) {
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
    if (cmd == "answers") return Answers();
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
    return Fail(StrCat("unknown command '", cmd, "' (try: help)"));
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
    const RewriteAlgorithm algorithm =
        ChooseRewriteAlgorithm(query_, state_.views);
    Result<ViewPlan> mcr =
        RunRewriteAlgorithm(*ctx_, algorithm, query_, state_.views);
    if (!mcr.ok()) return Fail(mcr.status().ToString());
    const ViewPlan& plan = mcr.value();
    if (plan.kind == PlanKind::kDatalog) {
      std::printf("recursive datalog mcr (%zu rules):\n%s\n",
                  plan.datalog->rules.size(), plan.datalog->ToString().c_str());
      return true;
    }
    std::printf(algorithm == RewriteAlgorithm::kLsiMcr
                    ? "mcr (%zu contained rewritings):\n%s\n"
                    : "contained rewritings (bucket, %zu):\n%s\n",
                plan.union_plan.disjuncts.size(),
                plan.union_plan.ToString().c_str());
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

  // Serve's `answers` over the store's maintained view database, which is
  // exactly MaterializeViews(views, base), kept current by fact/retract.
  bool Answers() {
    if (!NeedQuery()) return false;
    Result<Relation> r =
        CertainAnswers(*ctx_, query_, state_.views, state_.store.views());
    if (!r.ok()) return Fail(r.status().ToString());
    PrintRelation(r.value());
    return true;
  }

  bool Contained(const std::string& text) {
    if (!NeedQuery()) return false;
    Result<Query> p = ParseQuery(text);
    if (!p.ok()) return Fail(p.status().ToString());
    bool via_expansion = false;
    Result<bool> c = IsContainedThroughExpansion(*ctx_, p.value(), query_,
                                                 state_.views, &via_expansion);
    if (!c.ok()) return Fail(c.status().ToString());
    std::printf("contained: %s%s\n", c.value() ? "yes" : "no",
                via_expansion ? " (checked via expansion)" : "");
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
    RewritingWitness w;
    Result<ViewPlan> mcr = RunRewriteAlgorithm(
        *ctx_, ChooseRewriteAlgorithm(query_, views), query_, views, &w);
    if (!mcr.ok()) return Fail(mcr.status().ToString());
    const ViewPlan& plan = mcr.value();
    if (plan.kind == PlanKind::kDatalog) {
      Status st = CheckSiMcr(query_, views, *plan.datalog);
      if (!st.ok()) return Fail(StrCat("certificate: ", st.ToString()));
      std::printf("certificate: valid (datalog mcr, %zu rules checked)\n",
                  plan.datalog->rules.size());
      return true;
    }
    const size_t n = plan.union_plan.disjuncts.size();
    Status st = CheckRewritingWitness(query_, views, plan.union_plan, w);
    if (!st.ok()) return Fail(StrCat("certificate: ", st.ToString()));
    std::printf("certificate: valid (%zu disjunct%s checked)\n", n,
                n == 1 ? "" : "s");
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
  // anything: the class-dictated rewriting engine `rewrite` and `answers`
  // run, and the join order `eval` would use over the base facts. The
  // output is a pure function of the declared state, so it is identical at
  // every thread count (tools/determinism.cqac exercises that).
  bool PlanCmd() {
    if (!NeedQuery()) return false;
    Result<ViewPlan> vp = PlanForQuery(*ctx_, query_, state_.views);
    if (!vp.ok()) return Fail(vp.status().ToString());
    std::printf("plan:\n%s", vp.value().plan.ToString().c_str());

    plan::Decision jd =
        plan::PlanJoinOrder(query_, DatabaseCardinalities(state_.store.base()))
            .ToDecision();
    jd.detail = "direct eval over base facts";
    std::printf("  %s\n", jd.ToString().c_str());
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
    Status st = store::WriteSnapshotFile(dir + "/shell.cqs", 0, {ref});
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
};

}  // namespace
}  // namespace cqac

int main(int argc, char** argv) {
  size_t threads = 0;
  const char* script = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* count = arg == "--threads" && i + 1 < argc ? argv[++i]
                        : arg.rfind("--threads=", 0) == 0  ? argv[i] + 10
                                                           : nullptr;
    if (count != nullptr) {
      if (!cqac::ParseSize(count, &threads) ||
          threads > cqac::TaskPool::kMaxThreads) {
        std::fprintf(stderr,
                     "invalid thread count '%s' (at most %zu; usage: %s "
                     "[--threads N] [script])\n",
                     count, cqac::TaskPool::kMaxThreads, argv[0]);
        return 2;
      }
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
