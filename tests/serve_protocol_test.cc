// Transport-free serve tests: the JSON reader, the request envelope, and the
// Service op layer (src/serve/service.cc) driven by direct Execute calls —
// including, with a durable store attached, the all-or-nothing contract of
// `view`, `fact` and `retract`. Socket-level behavior (framing, drain,
// cancellation, concurrency) lives in serve_test.cc.
#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/engine/context.h"
#include "src/ir/json.h"
#include "src/serve/json_value.h"
#include "src/serve/protocol.h"
#include "src/serve/service.h"
#include "src/store/snapshot.h"
#include "src/store/store.h"

namespace cqac {
namespace serve {
namespace {

// ---- JSON reader ----------------------------------------------------------

TEST(JsonValueTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null").value().is_null());
  EXPECT_TRUE(ParseJson("true").value().bool_value());
  EXPECT_FALSE(ParseJson("false").value().bool_value());
  EXPECT_EQ(ParseJson("42").value().number_value(), 42.0);
  EXPECT_EQ(ParseJson("-2.5e2").value().number_value(), -250.0);
  EXPECT_EQ(ParseJson("\"hi\"").value().string_value(), "hi");
}

TEST(JsonValueTest, ParsesContainersAndKeepsObjectOrder) {
  JsonValue v = ParseJson("{\"b\": [1, 2], \"a\": {\"x\": null}}").value();
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object_items().size(), 2u);
  EXPECT_EQ(v.object_items()[0].first, "b");
  EXPECT_EQ(v.object_items()[1].first, "a");
  ASSERT_TRUE(v.Find("b")->is_array());
  EXPECT_EQ(v.Find("b")->array_items().size(), 2u);
  EXPECT_TRUE(v.Find("a")->Find("x")->is_null());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonValueTest, DuplicateKeysResolveToFirst) {
  JsonValue v = ParseJson("{\"k\": 1, \"k\": 2}").value();
  EXPECT_EQ(v.Find("k")->number_value(), 1.0);
}

TEST(JsonValueTest, DecodesEscapes) {
  JsonValue v = ParseJson("\"a\\n\\t\\\"\\\\\\/b\"").value();
  EXPECT_EQ(v.string_value(), "a\n\t\"\\/b");
  // \u escapes decode to UTF-8, including surrogate pairs.
  EXPECT_EQ(ParseJson("\"\\u0041\"").value().string_value(), "A");
  EXPECT_EQ(ParseJson("\"\\u00e9\"").value().string_value(), "\xc3\xa9");
  EXPECT_EQ(ParseJson("\"\\ud83d\\ude00\"").value().string_value(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonValueTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());         // trailing input
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());  // trailing comma
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_FALSE(ParseJson("\"\\q\"").ok());        // unknown escape
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());    // unpaired surrogate
  EXPECT_FALSE(ParseJson("\"raw\ntext\"").ok());  // raw control char
  EXPECT_FALSE(ParseJson("01").ok());
}

TEST(JsonValueTest, RejectsHostileNestingDepth) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  Result<JsonValue> r = ParseJson(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // A depth inside the cap still parses.
  std::string ok(32, '[');
  ok += "1";
  ok += std::string(32, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
}

// ---- request envelope -----------------------------------------------------

TEST(ProtocolTest, EnvelopeDefaultsAndFields) {
  Request req =
      ParseRequestEnvelope(
          ParseJson(
              "{\"op\":\"ping\",\"session\":\"s1\",\"id\":7,"
              "\"timeout_ms\":250,\"query\":\"q() :- r(X).\"}")
              .value())
          .value();
  EXPECT_EQ(req.op, "ping");
  EXPECT_EQ(req.session, "s1");
  EXPECT_EQ(req.id_json, "7");
  ASSERT_TRUE(req.timeout.has_value());
  EXPECT_EQ(req.timeout->count(), 250);
  EXPECT_EQ(req.GetString("query").value(), "q() :- r(X).");
  EXPECT_FALSE(req.GetString("absent").ok());
  EXPECT_EQ(req.GetStringOr("absent", "fb").value(), "fb");

  Request bare = ParseRequestEnvelope(ParseJson("{\"op\":\"x\"}").value())
                     .value();
  EXPECT_EQ(bare.session, "default");
  EXPECT_TRUE(bare.id_json.empty());
  EXPECT_FALSE(bare.timeout.has_value());

  // Past int64_t a timeout saturates; the service clamps it to max_timeout.
  for (const char* huge : {"1e19", "1e300"}) {
    Result<Request> big = ParseRequestEnvelope(
        ParseJson(StrCat("{\"op\":\"ping\",\"timeout_ms\":", huge, "}"))
            .value());
    ASSERT_TRUE(big.ok()) << huge;
    EXPECT_EQ(big.value().timeout, std::chrono::milliseconds::max()) << huge;
  }
}

TEST(ProtocolTest, EnvelopeRejectsBadShapes) {
  auto reject = [](const std::string& text) {
    Result<JsonValue> json = ParseJson(text);
    ASSERT_TRUE(json.ok()) << text;
    EXPECT_FALSE(ParseRequestEnvelope(std::move(json).value()).ok()) << text;
  };
  reject("[1]");                                  // not an object
  reject("{}");                                   // missing op
  reject("{\"op\":3}");                           // op not a string
  reject("{\"op\":\"x\",\"session\":1}");         // session not a string
  reject("{\"op\":\"x\",\"id\":[1]}");            // id not scalar
  reject("{\"op\":\"x\",\"timeout_ms\":-1}");     // negative timeout
  reject("{\"op\":\"x\",\"timeout_ms\":\"5\"}");  // timeout not a number
  reject("{\"op\":\"x\",\"timeout_ms\":1.5}");    // non-integer timeout
}

TEST(ProtocolTest, ResponseRendering) {
  Request req = ParseRequestEnvelope(
                    ParseJson("{\"op\":\"ping\",\"id\":\"a\"}").value())
                    .value();
  std::string out = BeginResponse(req);
  JsonField(&out, "n", "3");
  JsonClose(&out);
  EXPECT_EQ(out, "{\"ok\":true,\"op\":\"ping\",\"id\":\"a\",\"n\":3}\n");

  EXPECT_EQ(ErrorResponse(nullptr, ServeErrorCode::kParseError, "bad"),
            "{\"ok\":false,\"error\":{\"code\":\"parse_error\","
            "\"message\":\"bad\"}}\n");
  std::string err =
      ErrorResponse(req, Status::ResourceExhausted("deadline exceeded"));
  EXPECT_NE(err.find("\"code\":\"resource_exhausted\""), std::string::npos);
  EXPECT_NE(err.find("\"id\":\"a\""), std::string::npos);
}

TEST(ProtocolTest, ErrorCodeNamesAreStable) {
  // Wire strings are API: clients switch on them.
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kParseError),
               "parse_error");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kInvalidRequest),
               "invalid_request");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kUnknownOp), "unknown_op");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kInconsistent),
               "inconsistent");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kNotFound), "not_found");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kUnsupported),
               "unsupported");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kTooLarge), "too_large");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kOverloaded),
               "overloaded");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(ServeErrorCodeName(ServeErrorCode::kInternal), "internal");
}

// ---- Service op layer -----------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : service_(ctx_, ServiceOptions{}) {}

  /// Runs one request line, expecting an "ok":true response.
  std::string Ok(const std::string& line) {
    std::string response = service_.Execute(line, &shutdown_);
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
    return response;
  }

  /// Runs one request line, expecting a structured error with `code`.
  std::string Err(const std::string& line, const std::string& code) {
    std::string response = service_.Execute(line, &shutdown_);
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
    EXPECT_NE(response.find(StrCat("\"code\":\"", code, "\"")),
              std::string::npos)
        << response;
    return response;
  }

  EngineContext ctx_;
  Service service_;
  bool shutdown_ = false;
};

TEST_F(ServiceTest, PingEchoesIdAndOp) {
  EXPECT_EQ(Ok("{\"op\":\"ping\",\"id\":9}"),
            "{\"ok\":true,\"op\":\"ping\",\"id\":9}\n");
}

TEST_F(ServiceTest, ErrorLayersGetDistinctCodes) {
  Err("this is not json", "parse_error");
  Err("{\"op\":5}", "invalid_request");
  Err("{\"op\":\"frobnicate\"}", "unknown_op");
  Err("{\"op\":\"rewrite\"}", "invalid_argument");  // missing "query"
  Err("{\"op\":\"view\",\"rule\":\"v1(X) :- r(X\"}", "invalid_argument");
  Err("{\"op\":\"stats\",\"scope\":\"session\",\"session\":\"nope\"}",
      "not_found");
}

TEST_F(ServiceTest, ViewRewriteEvalRoundTrip) {
  Ok("{\"op\":\"view\",\"rule\":\"v1(Y, Z) :- r(X), s(Y, Z), Y <= X, "
     "X <= Z.\"}");
  Ok("{\"op\":\"view\",\"rule\":\"v2(Y, Z) :- r(X), s(Y, Z), Y <= X, "
     "X < Z.\"}");
  std::string rewrite =
      Ok("{\"op\":\"rewrite\",\"query\":\"q1(A) :- r(A), A < 4.\"}");
  EXPECT_NE(rewrite.find("\"kind\":\"mcr\""), std::string::npos) << rewrite;
  // The shard's context outlives the request: the same rewrite again
  // answers from the memoized containment decisions.
  StatsSnapshot before = ctx_.stats().Snapshot();
  EXPECT_EQ(
      Ok("{\"op\":\"rewrite\",\"query\":\"q1(A) :- r(A), A < 4.\"}"),
      rewrite);
  StatsSnapshot delta = ctx_.stats().Snapshot() - before;
  EXPECT_GT(delta.containment_cache_hits, 0u);
  EXPECT_EQ(delta.containment_cache_misses, 0u);
  Ok("{\"op\":\"fact\",\"facts\":\"r(2). s(2, 2). s(9, 9).\"}");
  std::string answers =
      Ok("{\"op\":\"answers\",\"query\":\"q1(A) :- r(A), A < 4.\"}");
  EXPECT_NE(answers.find("\"tuples\":[[\"2\"]]"), std::string::npos)
      << answers;
}

TEST_F(ServiceTest, SessionsIsolateViewsAndFacts) {
  Ok("{\"op\":\"view\",\"session\":\"a\",\"rule\":\"v(X) :- r(X).\"}");
  Ok("{\"op\":\"fact\",\"session\":\"a\",\"facts\":\"r(1).\"}");
  // Session "b" starts empty: same eval sees no tuples, stats sees no views.
  std::string eval_a =
      Ok("{\"op\":\"eval\",\"session\":\"a\",\"query\":\"q(X) :- r(X).\"}");
  EXPECT_NE(eval_a.find("\"count\":1"), std::string::npos) << eval_a;
  std::string eval_b =
      Ok("{\"op\":\"eval\",\"session\":\"b\",\"query\":\"q(X) :- r(X).\"}");
  EXPECT_NE(eval_b.find("\"count\":0"), std::string::npos) << eval_b;

  std::string stats =
      Ok("{\"op\":\"stats\",\"scope\":\"session\",\"session\":\"a\"}");
  EXPECT_NE(stats.find("\"views\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"facts\":1"), std::string::npos) << stats;

  // reset drops exactly one session.
  std::string reset = Ok("{\"op\":\"reset\",\"session\":\"a\"}");
  EXPECT_NE(reset.find("\"existed\":true"), std::string::npos);
  Err("{\"op\":\"stats\",\"scope\":\"session\",\"session\":\"a\"}",
      "not_found");
  Ok("{\"op\":\"stats\",\"scope\":\"session\",\"session\":\"b\"}");
}

TEST_F(ServiceTest, SessionStatsAttributeEngineWork) {
  Ok("{\"op\":\"view\",\"session\":\"s\",\"rule\":\"v(X, Y) :- r(X, Y), "
     "X < 5.\"}");
  Ok("{\"op\":\"rewrite\",\"session\":\"s\",\"query\":\"q(X) :- r(X, Y), "
     "X < 3.\"}");
  std::string stats =
      Ok("{\"op\":\"stats\",\"scope\":\"session\",\"session\":\"s\"}");
  // The rewrite ran containment checks; its work lands on session "s".
  EXPECT_EQ(stats.find("\"containment_calls\":0,"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"requests\":2"), std::string::npos) << stats;
}

TEST_F(ServiceTest, EvalOverAnUnchangedSessionBuildsNoIndexes) {
  // The session's base database keeps the join indexes its first eval
  // built; later evals probe them, and a fact patches them in place.
  std::string facts;
  for (int i = 0; i < 200; ++i)
    facts += StrCat("r(", i, ", ", i % 13, "). s(", i % 13, ", ", i, "). ");
  Ok(StrCat("{\"op\":\"fact\",\"facts\":", JsonQuote(facts), "}"));
  auto index_builds = [&] {
    const std::string stats = Ok("{\"op\":\"stats\"}");
    const std::string key = "\"eval_index_builds\":";
    const size_t pos = stats.find(key);
    EXPECT_NE(pos, std::string::npos) << stats;
    return std::strtoull(stats.c_str() + pos + key.size(), nullptr, 10);
  };
  auto eval = [&](int x) {
    return Ok(StrCat("{\"op\":\"eval\",\"query\":\"q(X, Z) :- r(X, Y), ",
                     "s(Y, Z), X < ", x, ".\"}"));
  };
  const std::string first = eval(20);
  const uint64_t built = index_builds();
  EXPECT_GT(built, 0u);
  EXPECT_EQ(eval(20), first);
  eval(50);
  EXPECT_EQ(index_builds(), built);
  Ok("{\"op\":\"fact\",\"facts\":\"r(1000, 3). s(3, 1000).\"}");
  EXPECT_NE(eval(20), first);  // the new s tuple joins r(X, 3), X < 20
  EXPECT_EQ(index_builds(), built);
}

TEST_F(ServiceTest, ExpiredDeadlineSurfacesAsResourceExhausted) {
  // The budget_deadline_test workload: mapping a 14-atom chain into a dense
  // 4-node digraph enumerates millions of walks, none satisfying the
  // trailing comparison. timeout_ms 0 (already expired) must abort promptly
  // with the structured resource_exhausted error, and the next request must
  // run with a fresh deadline (the per-request budget was restored).
  std::string candidate =
      "q(A) :- r(A,B), r(B,C), r(C,D), r(D,A), r(A,C), r(B,D), r(C,A), "
      "r(D,B), r(B,A), r(D,C)";
  std::string query = "q(X0) :- ";
  for (int i = 0; i < 14; ++i)
    query += StrCat(i ? ", " : "", "r(X", i, ", X", i + 1, ")");
  query += ", X0 < X14";
  Err(StrCat("{\"op\":\"contain\",\"timeout_ms\":0,\"query\":",
             JsonQuote(query), ",\"candidate\":", JsonQuote(candidate), "}"),
      "resource_exhausted");
  EXPECT_GT(uint64_t{ctx_.stats().budget_exhaustions}, 0u);
  Ok("{\"op\":\"ping\"}");
  Ok("{\"op\":\"classify\",\"query\":\"q(X) :- r(X, Y), X < 3.\"}");
}

TEST_F(ServiceTest, LintReportsDiagnostics) {
  std::string clean =
      Ok("{\"op\":\"lint\",\"program\":\"q(X) :- r(X, Y), X < 3.\"}");
  EXPECT_NE(clean.find("\"errors\":0"), std::string::npos) << clean;
  std::string bad = Ok("{\"op\":\"lint\",\"program\":\"q(X) :- r(X.\"}");
  EXPECT_NE(bad.find("\"code\":\"P001\""), std::string::npos) << bad;
  EXPECT_NE(bad.find("\"max_severity\":\"error\""), std::string::npos) << bad;
}

TEST_F(ServiceTest, ShutdownSetsFlagAndResponds) {
  std::string response = Ok("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown_);
  EXPECT_NE(response.find("\"draining\":true"), std::string::npos);
}

TEST_F(ServiceTest, MaxSessionsIsEnforced) {
  ServiceOptions options;
  options.max_sessions = 2;
  Service small(ctx_, options);
  bool shutdown = false;
  auto view = [&](const std::string& session) {
    return small.Execute(StrCat("{\"op\":\"view\",\"session\":\"", session,
                                "\",\"rule\":\"v(X) :- r(X).\"}"),
                         &shutdown);
  };
  EXPECT_EQ(view("a").rfind("{\"ok\":true", 0), 0u);
  EXPECT_EQ(view("b").rfind("{\"ok\":true", 0), 0u);
  std::string full = view("c");
  EXPECT_NE(full.find("\"code\":\"resource_exhausted\""), std::string::npos)
      << full;
}

// The largest timeouts cqac_serve accepts (--default-timeout-ms and
// --max-timeout-ms up to INT64_MAX) saturate the deadline instead of
// overflowing the clock.
TEST_F(ServiceTest, LargestTimeoutsSaturateTheDeadline) {
  ServiceOptions options;
  options.default_timeout = std::chrono::milliseconds::max();
  options.max_timeout = std::chrono::milliseconds::max();
  Service unbounded(ctx_, options);
  bool shutdown = false;
  for (const char* timeout : {"", ",\"timeout_ms\":1e19",
                              ",\"timeout_ms\":1e300"}) {
    std::string response = unbounded.Execute(
        StrCat("{\"op\":\"classify\",\"query\":\"q(X) :- r(X), X < 3.\"",
               timeout, "}"),
        &shutdown);
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
  }
}

// ---- All-or-nothing state changes over a durable store --------------------

// The three-way chain join the tests load: r(i, i), s(i, i), t(i, i).
constexpr char kChainQuery[] = "q(X, Y) :- r(X, Z), s(Z, W), t(W, Y).";
constexpr char kChainView[] = "v(X, Y) :- r(X, Z), s(Z, W), t(W, Y).";

// One fact per line, `pred(i + offset, i)` for i < n, for each predicate.
std::string Facts(const std::vector<std::string>& preds, int n,
                  int offset = 0) {
  std::string out;
  for (int i = 0; i < n; ++i)
    for (const std::string& p : preds)
      out += StrCat(p, "(", i + offset, ", ", i, ").\n");
  return out;
}

class DurableServiceTest : public ::testing::Test {
 protected:
  DurableServiceTest() : service_(ctx_, ServiceOptions{}) {}

  void SetUp() override {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "cqac_serve_proto_XXXXXX")
            .string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    store::StoreOptions options;
    options.fsync = store::FsyncPolicy::kNever;
    Result<std::unique_ptr<store::ShardStore>> opened =
        store::ShardStore::Open(dir_, 0, 1, options, &ctx_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    store_ = std::move(opened).value();
    service_.set_store(store_.get());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string Run(const std::string& op, const std::string& field,
                  const std::string& text, const std::string& extra = "") {
    return service_.Execute(StrCat("{\"op\":\"", op, "\",\"session\":\"s\",",
                                   extra, JsonQuote(field), ":",
                                   JsonQuote(text), "}"),
                            &shutdown_);
  }
  std::string Ok(const std::string& op, const std::string& field,
                 const std::string& text) {
    std::string response = Run(op, field, text);
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
    return response;
  }

  // The session's bytes as WriteSnapshotFile writes them (one session,
  // lsn 0).
  std::string SessionBytes(const store::SessionState& s) {
    const std::string path = dir_ + "/session.cqs";
    store::SessionSnapshotRef ref{&s.name, &s.view_texts, &s.store};
    Status st = store::WriteSnapshotFile(path, 0, {ref});
    EXPECT_TRUE(st.ok()) << st;
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  std::string LiveBytes() {
    Session* s = service_.sessions().Find("s");
    EXPECT_NE(s, nullptr);
    return s == nullptr ? "" : SessionBytes(*s);
  }

  // Replays the shard's log into a fresh context and expects session "s"
  // back with exactly the live session's bytes.
  void ExpectRecoveredEqualsLive() {
    EngineContext ctx;
    Result<store::RecoveredShard> rec =
        store::RecoverShard(ctx, store::ShardDirPath(dir_, 0));
    ASSERT_TRUE(rec.ok()) << rec.status();
    ASSERT_EQ(rec.value().sessions.size(), 1u);
    const store::SessionState& recovered = *rec.value().sessions[0];
    Session* live = service_.sessions().Find("s");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(recovered.views.size(), live->views.size());
    // EXPECT_TRUE, not EXPECT_EQ: the snapshots are megabytes.
    EXPECT_TRUE(SessionBytes(recovered) == SessionBytes(*live))
        << "the recovered session's snapshot differs from the live one";
  }

  std::string dir_;
  EngineContext ctx_;
  std::unique_ptr<store::ShardStore> store_;
  Service service_;
  bool shutdown_ = false;
};

std::vector<std::vector<std::string>> Tuples(const std::string& response) {
  std::vector<std::vector<std::string>> out;
  Result<JsonValue> json = ParseJson(response);
  EXPECT_TRUE(json.ok()) << json.status();
  if (!json.ok() || json.value().Find("tuples") == nullptr) return out;
  for (const JsonValue& t : json.value().Find("tuples")->array_items()) {
    out.emplace_back();
    for (const JsonValue& v : t.array_items())
      out.back().push_back(v.string_value());
  }
  return out;
}

// Regression: a `view` that ran out of budget used to stay in the session's
// registry with no extension, so the retry was refused as a duplicate,
// `answers` ran over an instance that was not V(D), and recovery (which
// never saw the view in the log) disagreed with the live session.
TEST_F(DurableServiceTest, ViewThatRunsOutOfBudgetLeavesNoTrace) {
  Ok("fact", "facts", Facts({"r", "s", "t"}, 3000));
  std::string exhausted = Run("view", "rule", kChainView, "\"timeout_ms\":0,");
  EXPECT_NE(exhausted.find("\"code\":\"resource_exhausted\""),
            std::string::npos)
      << exhausted;

  std::string retried = Ok("view", "rule", kChainView);
  EXPECT_NE(retried.find("\"views\":1"), std::string::npos) << retried;
  std::string eval = Ok("eval", "query", kChainQuery);
  std::string answers = Ok("answers", "query", kChainQuery);
  EXPECT_NE(answers.find("\"count\":3000,"), std::string::npos) << answers;
  EXPECT_NE(answers.find("\"rewriting_count\":1,"), std::string::npos);
  EXPECT_EQ(Tuples(answers).size(), 3000u);
  EXPECT_EQ(Tuples(answers), Tuples(eval));
  ExpectRecoveredEqualsLive();
}

// Every failure a `view`, `fact` or `retract` can meet before its log write
// leaves the session's snapshot bytes and the log exactly as they were.
TEST_F(DurableServiceTest, FailedStateChangesLeaveSessionAndLogUnchanged) {
  auto expect_unchanged = [&](const std::string& op, const std::string& text,
                              bool timeout, const std::string& code) {
    SCOPED_TRACE(StrCat(op, " ", text.substr(0, 40)));
    const std::string before = LiveBytes();
    const uint64_t lsn = store_->last_lsn();
    std::string response = Run(op, op == "view" ? "rule" : "facts", text,
                                timeout ? "\"timeout_ms\":0," : "");
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
    EXPECT_NE(response.find(StrCat("\"code\":\"", code, "\"")),
              std::string::npos)
        << response;
    EXPECT_TRUE(LiveBytes() == before) << "the session's snapshot changed";
    EXPECT_EQ(store_->last_lsn(), lsn);
  };

  Ok("fact", "facts", Facts({"r", "s", "t"}, 3000));
  // While p is empty, a batch into it is priced as a rebuild: the rebuild
  // commits the batch first, so its rollback is covered here.
  Ok("view", "rule", "w(X, Y) :- p(X, Y), p(Y, X).");
  const uint64_t rebuilds = ctx_.stats().ivm_rebuild_fallbacks;
  expect_unchanged("fact", Facts({"p"}, 3000), true, "resource_exhausted");
  EXPECT_GT(uint64_t{ctx_.stats().ivm_rebuild_fallbacks}, rebuilds);

  Ok("view", "rule", "u(X, Y) :- r(X, Z), s(Z, W), t(W, Y).");
  expect_unchanged("view", "v(X :- r(X).", false, "invalid_argument");
  expect_unchanged("view", "v(X, W) :- r(X, Y).", false,  // unsafe head
                   "invalid_argument");
  expect_unchanged("view", "u(X) :- r(X, X).", false, "invalid_argument");
  expect_unchanged("view", kChainView, true, "resource_exhausted");

  // Batches large enough for the incremental maintainer to reach a
  // deadline checkpoint: 3000 new r tuples that each join on through s and
  // t, and all of r.
  const std::string big_insert = Facts({"r"}, 3000, 3000);
  const std::string big_retract = Facts({"r"}, 3000);
  for (const std::string op : {"fact", "retract"}) {
    expect_unchanged(op, "r(1", false, "invalid_argument");
    expect_unchanged(op, "s(1, 2, 3).", false, "invalid_argument");  // arity
    expect_unchanged(op, op == "fact" ? big_insert : big_retract, true,
                     "resource_exhausted");
  }

  // The same through SessionState::Apply with a cancel requested first.
  Session* session = service_.sessions().Find("s");
  ASSERT_NE(session, nullptr);
  const std::vector<std::pair<store::RecordType, std::string>> records = {
      {store::RecordType::kView, kChainView},
      {store::RecordType::kFact, big_insert},
      {store::RecordType::kRetract, big_retract},
  };
  for (const auto& [type, text] : records) {
    SCOPED_TRACE(store::RecordTypeName(type));
    const std::string before = LiveBytes();
    ctx_.RequestCancel();
    Result<ivm::ApplySummary> applied = session->Apply(ctx_, type, text);
    ctx_.ClearCancel();
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(LiveBytes() == before) << "the session's snapshot changed";
  }

  // The session still takes every kind of change, and recovery agrees.
  Ok("view", "rule", kChainView);
  Ok("fact", "facts", big_insert);
  Ok("fact", "facts", Facts({"p"}, 3000));
  Ok("retract", "facts", big_retract);
  ExpectRecoveredEqualsLive();
}

}  // namespace
}  // namespace serve
}  // namespace cqac
