// cqac_audit — the whole-program certification CLI (src/analysis/audit).
//
// Two modes:
//
//   cqac_audit [flags] script.cqac [more.cqac ...]
//     Reads shell-format scripts (`view`, `query`, `fact`, `retract`
//     declarations; every other command line is ignored) and audits each
//     declared query against the declared views and facts.
//
//   cqac_audit [flags] --sweep
//     Generates a seeded random corpus across the comparison-class lattice
//     (CQ, LSI, RSI, CQAC-SI, SI) and audits every subject.
//
// Flags:
//   --json        emit one JSON report object instead of text
//   --threads N   task-pool workers (0 = single-threaded)
//   --depth K     SI-MCR chain rounds per unfolding branch (default 2)
//   --seed S      sweep RNG seed (default 42)
//   --per-class N sweep subjects per class (default 4)
//
// The exit code is 0 when every obligation certified, otherwise the numeric
// ObligationKind of the first failed obligation (stable across releases);
// 2 signals a usage or setup error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/audit/audit.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/gen/generators.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

struct Options {
  bool json = false;
  size_t threads = 0;
  size_t depth = 2;
  uint64_t seed = 42;
  int per_class = 4;
  bool sweep = false;
  std::vector<std::string> scripts;
};

std::string StripLine(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Collects the audit subjects of one shell-format script: every `query`
/// line becomes one subject sharing the script's views and final fact set.
Result<std::vector<audit::AuditInputs>> SubjectsOfScript(
    const std::string& path) {
  std::ifstream file(path);
  if (!file)
    return Status::InvalidArgument(StrCat("cannot open ", path));
  ViewSet views;
  Database facts;
  std::vector<Query> queries;
  std::string line;
  while (std::getline(file, line)) {
    line = StripLine(line);
    if (line.empty() || line[0] == '%') continue;
    const std::string cmd = line.substr(0, line.find(' '));
    const std::string rest =
        StripLine(line.size() > cmd.size() ? line.substr(cmd.size()) : "");
    if (cmd == "view") {
      CQAC_ASSIGN_OR_RETURN(Query v, ParseQuery(rest));
      CQAC_RETURN_IF_ERROR(views.Add(std::move(v)));
    } else if (cmd == "query") {
      CQAC_ASSIGN_OR_RETURN(Query q, ParseQuery(rest));
      CQAC_RETURN_IF_ERROR(q.Validate());
      queries.push_back(std::move(q));
    } else if (cmd == "fact") {
      CQAC_ASSIGN_OR_RETURN(Database one, Database::FromFacts(rest));
      CQAC_RETURN_IF_ERROR(facts.Merge(one));
    } else if (cmd == "retract") {
      CQAC_ASSIGN_OR_RETURN(Database one, Database::FromFacts(rest));
      for (const auto& [pred, rel] : one.relations())
        for (const Tuple& t : rel) facts.Remove(pred, t);
    }
    // Action commands (rewrite, eval, ...) are the shell's business; the
    // auditor re-derives and certifies all of them from the declarations.
  }
  std::vector<audit::AuditInputs> subjects;
  for (Query& q : queries) {
    audit::AuditInputs in;
    in.query = std::move(q);
    in.views = views;
    in.facts = facts;
    subjects.push_back(std::move(in));
  }
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
    for (int i = 0; i < opt.per_class; ++i) {
      gen::QuerySpec qs;
      qs.num_subgoals = 2 + (i % 2);
      qs.num_predicates = 2;
      qs.num_vars = 3 + (i % 2);
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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json")
      opt.json = true;
    else if (arg == "--sweep")
      opt.sweep = true;
    else if (arg == "--threads")
      opt.threads = static_cast<size_t>(std::atoi(next("--threads")));
    else if (arg == "--depth")
      opt.depth = static_cast<size_t>(std::atoi(next("--depth")));
    else if (arg == "--seed")
      opt.seed = static_cast<uint64_t>(std::atoll(next("--seed")));
    else if (arg == "--per-class")
      opt.per_class = std::atoi(next("--per-class"));
    else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--json] [--threads N] "
                   "[--depth K] (--sweep [--seed S] [--per-class N] | "
                   "script.cqac ...)\n",
                   arg.c_str(), argv[0]);
      return 2;
    } else {
      opt.scripts.push_back(arg);
    }
  }
  if (!opt.sweep && opt.scripts.empty()) {
    std::fprintf(stderr, "usage: %s [--json] [--threads N] [--depth K] "
                 "(--sweep [--seed S] [--per-class N] | script.cqac ...)\n",
                 argv[0]);
    return 2;
  }
  return cqac::Main(opt);
}
