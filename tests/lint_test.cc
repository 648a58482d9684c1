// Unit and golden-file tests for the semantic linter (src/analysis/lint.h),
// the autofixer (src/analysis/fix.h), and the class-inference helper
// (src/analysis/classify.h).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/classify.h"
#include "src/analysis/fix.h"
#include "src/analysis/lint.h"
#include "src/ir/parser.h"

namespace cqac {
namespace {

std::vector<LintDiagnostic> Lint(const std::string& text,
                                 const LintOptions& options = {}) {
  Result<ParsedQuery> pq = ParseQueryWithInfo(text);
  EXPECT_TRUE(pq.ok()) << pq.status();
  return LintQuery(pq.value(), options);
}

bool HasCode(const std::vector<LintDiagnostic>& diags, const char* code) {
  for (const LintDiagnostic& d : diags)
    if (d.code == code) return true;
  return false;
}

TEST(LintTest, CleanQueryGetsOnlyTheClassNote) {
  std::vector<LintDiagnostic> d = Lint("q(X) :- r(X, Y), s(Y), X <= 7.");
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].code, "L012");
  EXPECT_EQ(d[0].severity, LintSeverity::kNote);
  EXPECT_EQ(MaxLintSeverity(d), LintSeverity::kNote);
}

TEST(LintTest, NoNotesSuppressesL012) {
  LintOptions options;
  options.notes = false;
  EXPECT_TRUE(Lint("q(X) :- r(X).", options).empty());
}

TEST(LintTest, UnsafeHeadVariable) {
  std::vector<LintDiagnostic> d = Lint("q(X, Y) :- r(X).");
  EXPECT_TRUE(HasCode(d, "L001"));
  EXPECT_EQ(MaxLintSeverity(d), LintSeverity::kError);
}

TEST(LintTest, ComparisonOnlyVariable) {
  EXPECT_TRUE(HasCode(Lint("q(X) :- r(X), Y < 4."), "L002"));
  // Distinguished comparison-only variables are L001's, not L002's.
  std::vector<LintDiagnostic> d = Lint("q(Y) :- r(X), Y < 4.");
  EXPECT_TRUE(HasCode(d, "L001"));
  EXPECT_FALSE(HasCode(d, "L002"));
}

TEST(LintTest, UnsatisfiableComparisons) {
  EXPECT_TRUE(HasCode(Lint("q(X) :- r(X), X < 3, 4 < X."), "L003"));
}

TEST(LintTest, SymbolComparisonDisablesImplicationChecks) {
  std::vector<LintDiagnostic> d = Lint("q(X) :- r(X), X < red, X < 3, X < 4.");
  EXPECT_TRUE(HasCode(d, "L004"));
  // With a symbol on the order, no L006 claim is made for X < 4.
  EXPECT_FALSE(HasCode(d, "L006"));
}

TEST(LintTest, RedundantComparison) {
  std::vector<LintDiagnostic> d = Lint("q(X) :- r(X), X < 4, X < 5.");
  ASSERT_TRUE(HasCode(d, "L006"));
  for (const LintDiagnostic& diag : d) {
    if (diag.code == "L006") {
      EXPECT_NE(diag.message.find("X < 5"), std::string::npos) << diag.message;
    }
  }
}

TEST(LintTest, ConstantFoldableComparison) {
  EXPECT_TRUE(HasCode(Lint("q(X) :- r(X), 1 < 2."), "L007"));
  EXPECT_TRUE(HasCode(Lint("q(X) :- r(X), 2 < 1."), "L007"));
}

TEST(LintTest, DuplicateAndSubsumedSubgoals) {
  std::vector<LintDiagnostic> d = Lint("q(X) :- r(X, Y), r(X, Y).");
  EXPECT_TRUE(HasCode(d, "L008"));
  EXPECT_TRUE(HasCode(Lint("q(X) :- r(X, Y), r(X, Z)."), "L009"));
  // A genuinely restraining join is not subsumed.
  EXPECT_FALSE(HasCode(Lint("q(X) :- r(X, Y), s(Y)."), "L009"));
}

TEST(LintTest, ForcedEqualities) {
  EXPECT_TRUE(
      HasCode(Lint("q(X, Y) :- r(X, Y), X <= Y, Y <= X."), "L010"));
  // An explicit `=` is intentional, not a lint.
  EXPECT_FALSE(HasCode(Lint("q(X, Y) :- r(X, Y), X = Y."), "L010"));
}

TEST(LintTest, HeadShape) {
  EXPECT_TRUE(HasCode(Lint("q(X, X) :- r(X, Y)."), "L011"));
  EXPECT_TRUE(HasCode(Lint("q(X, 3) :- r(X, Y)."), "L011"));
  // Facts put constants in the head by design.
  EXPECT_FALSE(HasCode(Lint("r(1, 2)."), "L011"));
}

TEST(LintTest, ArityConflictAcrossRules) {
  ParsedProgram program =
      ParseProgramWithDiagnostics("q(X) :- r(X, Y).\np(X) :- r(X).");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(HasCode(LintProgram(program.rules), "L005"));
}

TEST(LintTest, DiagnosticsCarrySpans) {
  std::vector<LintDiagnostic> d = Lint("q(X) :- r(X), X < 4, X < 5.");
  for (const LintDiagnostic& diag : d)
    EXPECT_TRUE(diag.span.valid()) << diag.ToString();
}

TEST(LintTest, RegistryIsSortedAndUnique) {
  const std::vector<LintCheckInfo>& checks = LintChecks();
  ASSERT_EQ(checks.size(), 12u);
  for (size_t i = 1; i < checks.size(); ++i)
    EXPECT_LT(std::string(checks[i - 1].code), checks[i].code);
}

// ---- autofixes (--fix) ------------------------------------------------------

TEST(FixTest, DropsRedundantComparison) {
  FixResult r = FixFileText("q(X) :- r(X), X < 4, X < 5.\n");
  EXPECT_EQ(r.text, "q(X) :- r(X), X < 4.\n");
  ASSERT_EQ(r.edits.size(), 1u);
  EXPECT_EQ(r.edits[0].code, "L006");
}

TEST(FixTest, DropsDuplicateSubgoal) {
  FixResult r = FixFileText("q(X) :- r(X, Y), r(X, Y).\n");
  EXPECT_EQ(r.text, "q(X) :- r(X, Y).\n");
  ASSERT_EQ(r.edits.size(), 1u);
  EXPECT_EQ(r.edits[0].code, "L008");
}

TEST(FixTest, SubstitutesForcedEquality) {
  FixResult r = FixFileText("q(X, Y) :- r(X, Y), X <= Y, Y <= X.\n");
  EXPECT_EQ(r.text, "q(X, X) :- r(X, X).\n");
  ASSERT_EQ(r.edits.size(), 1u);
  EXPECT_EQ(r.edits[0].code, "L010");
}

TEST(FixTest, SubstitutesForcedConstant) {
  FixResult r = FixFileText("q(X) :- r(X), 3 <= X, X <= 3.\n");
  EXPECT_EQ(r.text, "q(3) :- r(3).\n");
  ASSERT_EQ(r.edits.size(), 1u);
  EXPECT_EQ(r.edits[0].code, "L010");
}

TEST(FixTest, SubstitutionCascadesIntoDuplicateRemoval) {
  // Merging Y := X turns the two subgoals into exact duplicates; the L008
  // pass then removes the second.
  FixResult r = FixFileText("q(X) :- r(X, Y), r(Y, X), X <= Y, Y <= X.\n");
  EXPECT_EQ(r.text, "q(X) :- r(X, X).\n");
  ASSERT_EQ(r.edits.size(), 2u);
  EXPECT_EQ(r.edits[0].code, "L010");
  EXPECT_EQ(r.edits[1].code, "L008");
}

TEST(FixTest, LeavesExplicitEqualityAlone) {
  const char* text = "q(X, Y) :- r(X, Y), X = Y.\n";
  FixResult r = FixFileText(text);
  EXPECT_FALSE(r.changed());
  EXPECT_EQ(r.text, text);
}

TEST(FixTest, LeavesGroundComparisonsToL007) {
  const char* text = "q(X) :- r(X), 1 < 2.\n";
  FixResult r = FixFileText(text);
  EXPECT_FALSE(r.changed());
  EXPECT_EQ(r.text, text);
}

TEST(FixTest, SymbolComparisonGatesImplicationFixes) {
  // L004 territory: the ordered symbol comparison makes the implication
  // engine inapplicable, so no L006/L010 rewrite may fire. (The duplicate
  // subgoal is still structural and safe to drop.)
  FixResult r = FixFileText("q(X) :- r(X), r(X), X < red, X < 3, X < 4.\n");
  ASSERT_EQ(r.edits.size(), 1u);
  EXPECT_EQ(r.edits[0].code, "L008");
}

TEST(FixTest, UnsatisfiableQueryIsNotRewritten) {
  // Everything is implied by an inconsistent set; dropping comparisons there
  // would silently change the (empty) query into a nonempty one.
  const char* text = "q(X) :- r(X), X < 3, 4 < X.\n";
  FixResult r = FixFileText(text);
  EXPECT_FALSE(r.changed());
}

TEST(FixTest, ParseErrorsLeaveTheFileUntouched) {
  const char* text = "q(X :- r(X), X < 4, X < 5.\n";
  FixResult r = FixFileText(text);
  EXPECT_FALSE(r.changed());
  EXPECT_EQ(r.text, text);
}

TEST(FixTest, PreservesSurroundingTextAndComments) {
  FixResult r = FixFileText(
      "% keep this comment\nq(X) :- r(X), X < 4, X < 5.\n\n"
      "p(Y) :- s(Y).  % untouched rule\n");
  EXPECT_EQ(r.text,
            "% keep this comment\nq(X) :- r(X), X < 4.\n\n"
            "p(Y) :- s(Y).  % untouched rule\n");
}

TEST(FixTest, FixesShellScriptLines) {
  FixResult r = FixFileText(
      "view v(X, Y) :- r(X, Y), r(X, Y).\n"
      "fact r(1, 2).\n"
      "retract r(1, 2).\n"
      "eval\n");
  EXPECT_EQ(r.text,
            "view v(X, Y) :- r(X, Y).\n"
            "fact r(1, 2).\n"
            "retract r(1, 2).\n"
            "eval\n");
  ASSERT_EQ(r.edits.size(), 1u);
  EXPECT_EQ(r.edits[0].code, "L008");
}

// A script line with a parse error stays verbatim, the rules on it keep
// their numbers, and the other lines are fixed.
TEST(FixTest, ScriptLineWithParseErrorStaysVerbatim) {
  FixResult r = FixFileText(
      "view v(X) :- r(X, Y), r(X, Y). w(Y :- s(Y).\n"
      "query q(X) :- r(X), r(X).\n");
  EXPECT_EQ(r.text,
            "view v(X) :- r(X, Y), r(X, Y). w(Y :- s(Y).\n"
            "query q(X) :- r(X).\n");
  ASSERT_EQ(r.edits.size(), 1u);
  EXPECT_EQ(r.edits[0].ToString(),
            "rule #2: dropped subgoal #2 'r(...)' (duplicates subgoal #1) "
            "[L008]");
}

TEST(FixTest, FixedOutputIsIdempotent) {
  const char* inputs[] = {
      "q(X) :- r(X), X < 4, X < 5.\n",
      "q(X, Y) :- r(X, Y), X <= Y, Y <= X.\n",
      "q(X) :- r(X, Y), r(Y, X), X <= Y, Y <= X.\n",
  };
  for (const char* text : inputs) {
    FixResult once = FixFileText(text);
    FixResult twice = FixFileText(once.text);
    EXPECT_FALSE(twice.changed()) << text;
    EXPECT_EQ(twice.text, once.text) << text;
  }
}

TEST(FixTest, FixedRuleStillLintsWithoutTheFixedCodes) {
  const char* inputs[] = {
      "q(X) :- r(X), X < 4, X < 5.\n",
      "q(Z) :- r(Z, W), r(Z, W).\n",
  };
  for (const char* text : inputs) {
    FixResult r = FixFileText(text);
    for (const LintDiagnostic& d : LintFileText(r.text))
      EXPECT_TRUE(d.code != "L006" && d.code != "L008" && d.code != "L010")
          << text << " -> " << d.ToString();
  }
}

// ---- the .cqac reader -------------------------------------------------------

TEST(ReaderTest, SplitsScriptLinesAtSpacesAndTabs) {
  ScriptLine line = SplitScriptLine(" \tview\t v(X) :- r(X).  \r");
  EXPECT_EQ(line.command, "view");
  EXPECT_EQ(line.argument, "v(X) :- r(X).");
  line = SplitScriptLine("eval\r");
  EXPECT_EQ(line.command, "eval");
  EXPECT_EQ(line.argument, "");
  EXPECT_TRUE(SplitScriptLine("  % a comment").command.empty());
  EXPECT_TRUE(SplitScriptLine(" \t\r").command.empty());
}

// A tab after a command word reads like a space and CRLF like LF: the
// linter and the fixer find the same rules at the same lines and columns.
TEST(ReaderTest, TabsAndCrlfReadLikeSpacesAndLf) {
  const std::string plain =
      "% a script\n"
      "view v(X, Y) :- r(X, Y), r(X, Y).\n"
      "  fact r(1, 2).\n"
      "query q(X) :- v(X, Y), X <= Y, Y <= X.\n";
  const std::string twin =
      "% a script\r\n"
      "view\tv(X, Y) :- r(X, Y), r(X, Y).\r\n"
      " \tfact\tr(1, 2).\r\n"
      "query\tq(X) :- v(X, Y), X <= Y, Y <= X.\r\n";
  const CqacText a = ReadCqacText(plain), b = ReadCqacText(twin);
  EXPECT_TRUE(a.script);
  EXPECT_TRUE(b.script);
  EXPECT_TRUE(b.errors.empty());
  ASSERT_EQ(a.rules.size(), 3u);
  ASSERT_EQ(b.rules.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const SourceSpan& sa = a.rules[i].info.rule;
    const SourceSpan& sb = b.rules[i].info.rule;
    EXPECT_EQ(a.rules[i].query.ToString(), b.rules[i].query.ToString());
    EXPECT_EQ(sa.ToString(), sb.ToString());
    // Byte offsets are the file's own.
    EXPECT_EQ(plain.substr(sa.begin.offset, sa.end.offset - sa.begin.offset),
              twin.substr(sb.begin.offset, sb.end.offset - sb.begin.offset));
  }

  std::vector<std::string> lint_a, lint_b;
  for (const LintDiagnostic& d : LintFileText(plain))
    lint_a.push_back(d.ToString());
  for (const LintDiagnostic& d : LintFileText(twin))
    lint_b.push_back(d.ToString());
  EXPECT_EQ(lint_a, lint_b);

  FixResult fa = FixFileText(plain), fb = FixFileText(twin);
  ASSERT_EQ(fa.edits.size(), 2u);  // L008 in the view, L010 in the query
  ASSERT_EQ(fb.edits.size(), fa.edits.size());
  for (size_t i = 0; i < fa.edits.size(); ++i)
    EXPECT_EQ(fa.edits[i].ToString(), fb.edits[i].ToString());
  EXPECT_EQ(fb.text,
            "% a script\r\n"
            "view\tv(X, Y) :- r(X, Y).\r\n"
            " \tfact\tr(1, 2).\r\n"
            "query\tq(X) :- v(X, X).\r\n");
}

// ---- class inference --------------------------------------------------------

ClassInfo ClassOf(const std::string& text) {
  return ClassifyQuery(MustParseQuery(text));
}

TEST(ClassifyTest, LabelsSeedExampleQueries) {
  EXPECT_STREQ(ClassOf("q(X) :- r(X, Y).").Name(), "CQ");
  EXPECT_STREQ(ClassOf("q(X) :- r(X), X < 4.").Name(), "LSI");
  EXPECT_STREQ(ClassOf("q(X) :- r(X), 4 < X.").Name(), "RSI");
  // Example 1.1's query: one LSI + one RSI = CQAC-SI.
  EXPECT_STREQ(ClassOf("q() :- e(X, Y), e(Y, Z), X > 5, Z < 8.").Name(),
               "CQAC-SI");
  // Two LSIs + two RSIs: SI but not CQAC-SI.
  EXPECT_STREQ(
      ClassOf("q() :- e(X, Y), X > 5, Y > 6, X < 8, Y < 9.").Name(), "SI");
  EXPECT_STREQ(ClassOf("q(X) :- r(X, Y), X < Y.").Name(), "CQAC");
}

TEST(ClassifyTest, OpenAndClosedComparisonSets) {
  EXPECT_TRUE(ClassOf("q(X) :- r(X), X < 4.").open);
  EXPECT_TRUE(ClassOf("q(X) :- r(X), X <= 4.").closed);
  ClassInfo mixed = ClassOf("q(X) :- r(X), X < 4, 1 <= X.");
  EXPECT_FALSE(mixed.open);
  EXPECT_FALSE(mixed.closed);
}

TEST(ClassifyTest, RecommendsAnAlgorithmForEveryClass) {
  const char* queries[] = {
      "q(X) :- r(X, Y).",
      "q(X) :- r(X), X < 4.",
      "q(X) :- r(X), 4 < X.",
      "q() :- e(X, Y), e(Y, Z), X > 5, Z < 8.",
      "q() :- e(X, Y), X > 5, Y > 6, X < 8, Y < 9.",
      "q(X) :- r(X, Y), X < Y.",
  };
  for (const char* text : queries)
    EXPECT_FALSE(std::string(ClassOf(text).RecommendedAlgorithm()).empty())
        << text;
}

// ---- golden files -----------------------------------------------------------

// Lints a corpus file through the library entry point the CLI and the serve
// `lint` op use (LintFileText: shell-script auto-detection, span remapping,
// P001 parse recovery), rendering each diagnostic exactly as the CLI does
// (minus the file-name prefix).
std::vector<std::string> LintFileLines(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<std::string> lines;
  for (const LintDiagnostic& d : LintFileText(buf.str()))
    lines.push_back(d.ToString());
  return lines;
}

std::vector<std::string> ReadLines(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(LintGoldenTest, CorpusMatchesExpectedOutput) {
  std::filesystem::path dir =
      std::filesystem::path(CQAC_SOURCE_DIR) / "examples" / "lint";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  size_t cases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cqac") continue;
    std::filesystem::path expected = entry.path();
    expected.replace_extension(".expected");
    ASSERT_TRUE(std::filesystem::exists(expected))
        << "missing golden file " << expected;
    EXPECT_EQ(LintFileLines(entry.path()), ReadLines(expected))
        << "golden mismatch for " << entry.path();
    ++cases;
  }
  // One corpus file per lint code, the parse-recovery case, the clean
  // program, and the failing shell script (badscript).
  EXPECT_GE(cases, 15u);
}

TEST(LintGoldenTest, EveryLintCodeHasACorpusFile) {
  std::filesystem::path dir =
      std::filesystem::path(CQAC_SOURCE_DIR) / "examples" / "lint";
  for (const LintCheckInfo& check : LintChecks()) {
    std::filesystem::path file = dir / (std::string(check.code) + ".cqac");
    EXPECT_TRUE(std::filesystem::exists(file)) << file;
  }
}

// Every <code>.fixed sibling is the exact cqac_lint --fix output for its
// <code>.cqac corpus file, and fixing is idempotent on it.
TEST(LintGoldenTest, FixGoldensMatchAndAreStable) {
  std::filesystem::path dir =
      std::filesystem::path(CQAC_SOURCE_DIR) / "examples" / "lint";
  size_t cases = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".fixed") continue;
    std::filesystem::path input = entry.path();
    input.replace_extension(".cqac");
    ASSERT_TRUE(std::filesystem::exists(input))
        << "orphan fix golden " << entry.path();
    std::ifstream in(input), want(entry.path());
    std::ostringstream in_buf, want_buf;
    in_buf << in.rdbuf();
    want_buf << want.rdbuf();
    FixResult r = FixFileText(in_buf.str());
    EXPECT_TRUE(r.changed()) << input;
    EXPECT_EQ(r.text, want_buf.str()) << "fix golden mismatch for " << input;
    EXPECT_FALSE(FixFileText(r.text).changed())
        << "fix not idempotent for " << input;
    ++cases;
  }
  // One golden per autofixable code (L006, L008, L010).
  EXPECT_GE(cases, 3u);
}

// Autofixing the clean corpus program must be the identity.
TEST(LintGoldenTest, FixLeavesCleanCorpusUntouched) {
  std::filesystem::path file = std::filesystem::path(CQAC_SOURCE_DIR) /
                               "examples" / "lint" / "clean.cqac";
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << file;
  std::ostringstream buf;
  buf << in.rdbuf();
  FixResult r = FixFileText(buf.str());
  EXPECT_FALSE(r.changed());
  EXPECT_EQ(r.text, buf.str());
}

// ---- shell vocabulary -------------------------------------------------------

// cqac_shell dispatches exactly the words of kShellCommands: script
// auto-detection then knows every command, and the shell's `help` (which
// prints kShellCommands) lists every one.
TEST(ShellVocabularyTest, DispatchMatchesShellCommands) {
  std::filesystem::path file =
      std::filesystem::path(CQAC_SOURCE_DIR) / "tools" / "cqac_shell.cc";
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << file;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  // Dispatch's body runs from its signature to the unknown-command reply.
  const size_t begin = src.find("bool Dispatch(");
  ASSERT_NE(begin, std::string::npos);
  const size_t end = src.find("unknown command", begin);
  ASSERT_NE(end, std::string::npos);

  std::set<std::string> dispatched;
  const std::regex word(R"re(cmd == "([^"]*)")re");
  for (std::sregex_iterator it(src.begin() + begin, src.begin() + end, word),
       last;
       it != last; ++it)
    dispatched.insert((*it)[1].str());
  std::set<std::string> listed;
  for (std::string_view cmd : kShellCommands) listed.emplace(cmd);
  EXPECT_EQ(listed.size(), std::size(kShellCommands)) << "duplicate word";
  EXPECT_EQ(dispatched, listed);
}

}  // namespace
}  // namespace cqac
