// cqac_audit — the whole-program certification CLI (src/analysis/audit).
//
// Two modes:
//
//   cqac_audit [flags] script.cqac [more.cqac ...]
//     Reads shell-format scripts with the shell's line splitter: `view`,
//     `fact` and `retract` change a session's state as they do in the shell
//     (store::SessionState::Apply), every `query` is a subject, `reset` ends
//     a segment, `load` is refused, and every other command line is
//     ignored. Each query is audited against the views and final facts of
//     its segment; the next segment starts from an empty state, as the
//     shell's does after `reset`.
//
//   cqac_audit [flags] --sweep
//     Generates a seeded random corpus across the comparison-class lattice
//     (CQ, LSI, RSI, CQAC-SI, SI) and audits every subject.
//
// Flags:
//   --json        emit one JSON report object instead of text
//   --threads N   task-pool workers (0 = single-threaded, at most 256)
//   --depth K     SI-MCR chain rounds per unfolding branch (default 2)
//   --seed S      sweep RNG seed (default 42)
//   --per-class N sweep subjects per class (default 4)
//
// The exit code is 0 when every obligation certified, otherwise the numeric
// ObligationKind of the first failed obligation (stable across releases);
// 2 signals a usage or setup error.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/audit/audit.h"
#include "src/analysis/lint.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"
#include "src/store/snapshot.h"

namespace cqac {
namespace {

struct Options {
  bool json = false;
  size_t threads = 0;
  size_t depth = 2;
  size_t seed = 42;
  size_t per_class = 4;
  bool sweep = false;
  std::vector<std::string> scripts;
};

/// Collects the audit subjects of one shell-format script: every `query`
/// line becomes one subject sharing its segment's views and final fact set.
Result<std::vector<audit::AuditInputs>> SubjectsOfScript(
    const std::string& path) {
  std::ifstream file(path);
  if (!file)
    return Status::InvalidArgument(StrCat("cannot open ", path));
  // The declarations get a context of their own, so the audit counters
  // count only the audit's work.
  EngineContext ctx;
  store::SessionState state;
  std::vector<Query> queries;  // of the current segment
  std::vector<audit::AuditInputs> subjects;
  auto end_segment = [&] {
    for (Query& q : queries) {
      audit::AuditInputs in;
      in.query = std::move(q);
      in.views = state.views;
      in.facts = state.store.base();
      subjects.push_back(std::move(in));
    }
    queries.clear();
    state = store::SessionState();
  };
  std::string line;
  for (size_t line_no = 1; std::getline(file, line); ++line_no) {
    const ScriptLine split = SplitScriptLine(line);
    const std::string rest(split.argument);
    if (split.command == "reset") {
      end_segment();
    } else if (split.command == "load") {
      return Status::InvalidArgument(
          StrCat("line ", line_no,
                 ": `load` restores a state the script does not declare"));
    } else if (split.command == "query") {
      CQAC_ASSIGN_OR_RETURN(Query q, ParseQuery(rest));
      CQAC_RETURN_IF_ERROR(q.Validate());
      queries.push_back(std::move(q));
    } else if (split.command == "view") {
      CQAC_RETURN_IF_ERROR(
          state.Apply(ctx, store::RecordType::kView, rest).status());
    } else if (split.command == "fact") {
      CQAC_RETURN_IF_ERROR(
          state.Apply(ctx, store::RecordType::kFact, rest).status());
    } else if (split.command == "retract") {
      CQAC_RETURN_IF_ERROR(
          state.Apply(ctx, store::RecordType::kRetract, rest).status());
    }
    // Action commands (rewrite, eval, ...) are the shell's business; the
    // auditor re-derives and certifies all of them from the declarations.
  }
  end_segment();
  return subjects;
}

/// One sweep subject per (class, index): a random query of that class,
/// views sampled from its body, and a random database over their schema.
std::vector<audit::AuditInputs> SweepSubjects(const Options& opt) {
  struct ClassSpec {
    const char* name;
    gen::AcMode query_mode;
    gen::AcMode view_mode;
  };
  const ClassSpec classes[] = {
      {"cq", gen::AcMode::kNone, gen::AcMode::kNone},
      {"lsi", gen::AcMode::kLsi, gen::AcMode::kLsi},
      {"rsi", gen::AcMode::kRsi, gen::AcMode::kRsi},
      {"cqac-si", gen::AcMode::kCqacSi, gen::AcMode::kSi},
      {"si", gen::AcMode::kSi, gen::AcMode::kSi},
  };
  std::vector<audit::AuditInputs> subjects;
  Rng rng(opt.seed);
  for (const ClassSpec& cs : classes) {
    for (size_t i = 0; i < opt.per_class; ++i) {
      const int odd = static_cast<int>(i % 2);
      gen::QuerySpec qs;
      qs.num_subgoals = 2 + odd;
      qs.num_predicates = 2;
      qs.num_vars = 3 + odd;
      qs.ac_mode = cs.query_mode;
      qs.ac_density = cs.query_mode == gen::AcMode::kNone ? 0.0 : 0.7;
      audit::AuditInputs in;
      in.query =
          gen::RandomQuery(rng, qs, StrCat("q_", cs.name, "_", i));
      gen::ViewSpec vs;
      vs.num_views = 3;
      vs.ac_mode = cs.view_mode;
      vs.ac_density = cs.view_mode == gen::AcMode::kNone ? 0.0 : 0.5;
      in.views = gen::RandomViewsForQuery(rng, in.query, vs);
      gen::DatabaseSpec ds;
      ds.tuples_per_relation = 12;
      in.facts = gen::RandomDatabase(rng, gen::SchemaOf(in.query), ds);
      subjects.push_back(std::move(in));
    }
  }
  return subjects;
}

int Main(const Options& opt) {
  TaskPool pool(opt.threads);
  EngineContext ctx;
  ctx.set_task_pool(&pool);

  std::vector<audit::AuditInputs> subjects;
  if (opt.sweep) {
    subjects = SweepSubjects(opt);
  } else {
    for (const std::string& path : opt.scripts) {
      Result<std::vector<audit::AuditInputs>> s = SubjectsOfScript(path);
      if (!s.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     s.status().ToString().c_str());
        return 2;
      }
      for (audit::AuditInputs& in : s.value())
        subjects.push_back(std::move(in));
    }
  }
  if (subjects.empty()) {
    std::fprintf(stderr, "nothing to audit (no queries declared)\n");
    return 2;
  }

  audit::UnfoldOptions unfold;
  unfold.max_depth = opt.depth;
  audit::AuditReport report;
  for (const audit::AuditInputs& in : subjects) {
    Status st = audit::AuditAll(ctx, in, unfold, &report);
    if (!st.ok()) {
      std::fprintf(stderr, "audit setup failed on '%s': %s\n",
                   in.query.head().predicate.c_str(),
                   st.ToString().c_str());
      return 2;
    }
  }

  if (opt.json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf("%s", report.ToString().c_str());
    StatsSnapshot s = ctx.stats().Snapshot();
    std::printf(
        "audit counters: %llu obligations, %llu failures, %llu unfold "
        "disjuncts, %llu replayed tuples, %llu ms wall\n",
        static_cast<unsigned long long>(s.audit_obligations),
        static_cast<unsigned long long>(s.audit_failures),
        static_cast<unsigned long long>(s.audit_unfold_disjuncts),
        static_cast<unsigned long long>(s.audit_replayed_tuples),
        static_cast<unsigned long long>(s.audit_wall_ns / 1000000));
  }
  return report.ExitCode();
}

}  // namespace
}  // namespace cqac

int main(int argc, char** argv) {
  cqac::Options opt;
  const char* usage =
      "usage: %s [--json] [--threads N] [--depth K] "
      "(--sweep [--seed S] [--per-class N] | script.cqac ...)\n";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Every numeric flag takes a plain decimal count.
    size_t* count = arg == "--threads"     ? &opt.threads
                    : arg == "--depth"     ? &opt.depth
                    : arg == "--seed"      ? &opt.seed
                    : arg == "--per-class" ? &opt.per_class
                                           : nullptr;
    if (count != nullptr) {
      if (i + 1 >= argc || !cqac::ParseSize(argv[++i], count) ||
          opt.threads > cqac::TaskPool::kMaxThreads) {
        std::fprintf(stderr, "%s needs a count (threads: at most %zu)\n",
                     arg.c_str(), cqac::TaskPool::kMaxThreads);
        std::fprintf(stderr, usage, argv[0]);
        return 2;
      }
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--sweep") {
      opt.sweep = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::fprintf(stderr, usage, argv[0]);
      return 2;
    } else {
      opt.scripts.push_back(arg);
    }
  }
  if (!opt.sweep && opt.scripts.empty()) {
    std::fprintf(stderr, usage, argv[0]);
    return 2;
  }
  return cqac::Main(opt);
}
