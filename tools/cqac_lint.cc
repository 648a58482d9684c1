// cqac_lint — semantic static analysis for CQAC programs.
//
// Usage:
//   cqac_lint [--fix] [--json] [--no-notes] [--list-checks] [--threads N]
//             [file ... | -]
//
// Each input is either a plain '.'-terminated rule program or a cqac_shell
// script (auto-detected by its first command word); the rules of a script
// are the rule text of its view/query/fact/retract/contained/explain lines,
// reported at their lines and columns in the script (ReadCqacText,
// src/analysis/lint.h).
//
// Diagnostics go to stdout as `file:line:col: severity: message [code]`, or
// as a JSON array with --json. Exit status: 0 clean (or notes only),
// 1 warnings, 2 errors (lint or parse), 3 usage / I-O failure.
//
// --fix applies the mechanical autofixes (L006 drop redundant comparison,
// L008 drop duplicate subgoal, L010 substitute forced equalities; see
// src/analysis/fix.h). Named files are rewritten in place; for stdin the
// fixed text goes to stdout and diagnostics are suppressed. A one-line
// summary of each applied rewrite goes to stderr. Linting then runs on the
// fixed text, so the exit status reflects what remains.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/fix.h"
#include "src/analysis/lint.h"
#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/ir/json.h"

namespace cqac {
namespace {

struct FileDiagnostic {
  std::string file;
  LintDiagnostic diag;
};

// ---- output ---------------------------------------------------------------

void PrintText(const std::vector<FileDiagnostic>& diags) {
  for (const FileDiagnostic& fd : diags)
    std::printf("%s:%s\n", fd.file.c_str(), fd.diag.ToString().c_str());
}

void PrintJson(const std::vector<FileDiagnostic>& diags) {
  std::printf("[");
  for (size_t i = 0; i < diags.size(); ++i) {
    const FileDiagnostic& fd = diags[i];
    std::printf(
        "%s\n  {\"file\": %s, \"line\": %d, \"col\": %d, "
        "\"severity\": \"%s\", \"code\": \"%s\", \"rule\": %d, "
        "\"message\": %s}",
        i ? "," : "", JsonQuote(fd.file).c_str(), fd.diag.span.begin.line,
        fd.diag.span.begin.col, LintSeverityName(fd.diag.severity),
        fd.diag.code.c_str(), fd.diag.rule_index,
        JsonQuote(fd.diag.message).c_str());
  }
  std::printf("%s]\n", diags.empty() ? "" : "\n");
}

void ListChecks() {
  std::printf("%s  %-7s  %s\n", "code", "severity", "summary");
  for (const LintCheckInfo& c : LintChecks())
    std::printf("%s  %-7s  %s\n", c.code, LintSeverityName(c.severity),
                c.summary);
  std::printf("%s  %-7s  %s\n", kLintParseCode, "error",
              "parse error (reported with recovery: every error in the "
              "file, not just the first)");
}

int Run(int argc, char** argv) {
  bool json = false;
  bool fix = false;
  size_t threads = 0;
  LintOptions options;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--no-notes") {
      options.notes = false;
    } else if (arg == "--list-checks") {
      ListChecks();
      return 0;
    } else if (arg == "--threads" || arg.rfind("--threads=", 0) == 0) {
      std::string value;
      if (arg == "--threads") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "cqac_lint: --threads requires a count\n");
          return 3;
        }
        value = argv[++i];
      } else {
        value = arg.substr(strlen("--threads="));
      }
      if (!ParseSize(value.c_str(), &threads) ||
          threads > TaskPool::kMaxThreads) {
        std::fprintf(stderr,
                     "cqac_lint: invalid thread count '%s' (at most %zu)\n",
                     value.c_str(), TaskPool::kMaxThreads);
        return 3;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: cqac_lint [--fix] [--json] [--no-notes] [--list-checks] "
          "[--threads N] [file ... | -]\n");
      return 0;
    } else if (arg == "-" || arg[0] != '-') {
      files.push_back(arg);
    } else {
      std::fprintf(stderr, "cqac_lint: unknown option '%s'\n", arg.c_str());
      return 3;
    }
  }
  if (files.empty()) files.push_back("-");

  // Read every input up front (serial: I/O errors keep their usual order),
  // then lint files in parallel with per-file diagnostic buffers merged in
  // argument order — output is identical at every thread count.
  std::vector<std::string> texts(files.size());
  std::vector<std::string> names(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string& f = files[i];
    if (f == "-") {
      std::ostringstream buf;
      buf << std::cin.rdbuf();
      texts[i] = buf.str();
    } else {
      std::ifstream in(f);
      if (!in) {
        std::fprintf(stderr, "cqac_lint: cannot open %s\n", f.c_str());
        return 3;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      texts[i] = buf.str();
    }
    names[i] = f == "-" ? "<stdin>" : f;
  }

  // --fix rewrites each input before linting: files in place, stdin to
  // stdout (so the tool composes as a filter). Diagnostics below then
  // describe the fixed text.
  bool stdout_taken_by_fix = false;
  if (fix) {
    for (size_t i = 0; i < files.size(); ++i) {
      FixResult fixed = FixFileText(texts[i]);
      // Fixpoint check: one --fix pass must converge — running the fixer
      // again over its own output has to be a byte-identical no-op. A
      // divergence means two autofixes interact; fail loudly (and write
      // nothing) instead of shipping a rewrite that a second run would
      // change again.
      FixResult again = FixFileText(fixed.text);
      if (again.changed() || again.text != fixed.text) {
        std::fprintf(stderr,
                     "cqac_lint: autofix did not reach a fixpoint on %s (a "
                     "second pass would still rewrite the text); no changes "
                     "written\n",
                     names[i].c_str());
        return 3;
      }
      for (const FixEdit& e : fixed.edits)
        std::fprintf(stderr, "%s: %s\n", names[i].c_str(),
                     e.ToString().c_str());
      if (files[i] == "-") {
        std::fwrite(fixed.text.data(), 1, fixed.text.size(), stdout);
        stdout_taken_by_fix = true;
      } else if (fixed.changed()) {
        std::ofstream out(files[i], std::ios::trunc | std::ios::binary);
        out << fixed.text;
        if (!out) {
          std::fprintf(stderr, "cqac_lint: cannot write %s\n",
                       files[i].c_str());
          return 3;
        }
      }
      texts[i] = std::move(fixed.text);
    }
  }

  TaskPool pool(threads);
  std::vector<std::vector<FileDiagnostic>> per_file(files.size());
  pool.ParallelFor(files.size(), [&](size_t i) {
    // Shell-script auto-detection and span remapping live in the library
    // (LintFileText), shared with the serve `lint` op and the test corpus.
    for (LintDiagnostic& d : LintFileText(texts[i], options))
      per_file[i].push_back({names[i], std::move(d)});
  });
  std::vector<FileDiagnostic> diags;
  for (std::vector<FileDiagnostic>& fd : per_file)
    for (FileDiagnostic& d : fd) diags.push_back(std::move(d));

  if (stdout_taken_by_fix) {
    // stdout carries the fixed text; keep it clean for redirection.
  } else if (json) {
    PrintJson(diags);
  } else {
    PrintText(diags);
  }

  LintSeverity max = LintSeverity::kNote;
  bool any_above_note = false;
  for (const FileDiagnostic& fd : diags) {
    if (static_cast<int>(fd.diag.severity) > static_cast<int>(max))
      max = fd.diag.severity;
    if (fd.diag.severity != LintSeverity::kNote) any_above_note = true;
  }
  if (!any_above_note) return 0;
  return max == LintSeverity::kError ? 2 : 1;
}

}  // namespace
}  // namespace cqac

int main(int argc, char** argv) { return cqac::Run(argc, argv); }
