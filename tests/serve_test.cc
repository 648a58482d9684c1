// Socket-level tests for the cqac_serve server (src/serve/server.h): framing
// and error codes over a real loopback connection, pipelined requests with
// per-shard overload, graceful drain, in-flight cancellation on client
// disconnect, and the determinism guarantees — serve responses
// byte-identical to direct library calls, and concurrent clients
// byte-identical to a serial replay at every shard count (the shard sweep).
// Also proves the pinning contract: sessions on different shards cannot
// observe each other's views or facts; and that `stats` carries every
// counter perfbench reads.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"
#include "src/ir/json.h"
#include "src/ir/parser.h"
#include "src/ir/view.h"
#include "src/rewriting/rewrite_lsi.h"
#include "src/serve/json_value.h"
#include "src/serve/server.h"

namespace cqac {
namespace serve {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// A blocking line-oriented loopback client. A `receive_buffer` above 0
/// pins the socket's receive buffer to about that many bytes.
class TestClient {
 public:
  explicit TestClient(uint16_t port, int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    if (receive_buffer > 0)
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                   sizeof(receive_buffer));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~TestClient() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool SendLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one response line; empty string on EOF.
  std::string RecvLine() {
    size_t pos;
    while ((pos = acc_.find('\n')) == std::string::npos) {
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return "";
      acc_.append(buf, static_cast<size_t>(n));
    }
    std::string line = acc_.substr(0, pos);
    acc_.erase(0, pos + 1);
    return line;
  }

  std::string RoundTrip(const std::string& line) {
    EXPECT_TRUE(SendLine(line));
    return RecvLine();
  }

 private:
  int fd_ = -1;
  std::string acc_;
};

/// Extracts a string field from a response line via the serve JSON reader.
std::string Field(const std::string& response, const std::string& key) {
  Result<JsonValue> json = ParseJson(response);
  if (!json.ok()) return "";
  const JsonValue* v = json.value().Find(key);
  return v != nullptr && v->is_string() ? v->string_value() : "";
}

TEST(ServeTest, LoopbackRoundTrips) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  EXPECT_EQ(client.RoundTrip("{\"op\":\"ping\",\"id\":1}"),
            "{\"ok\":true,\"op\":\"ping\",\"id\":1}");
  EXPECT_EQ(client.RoundTrip("{\"op\":\"view\",\"rule\":\"v1(X, Y) :- "
                             "r(X, Y), X < 5.\"}"),
            "{\"ok\":true,\"op\":\"view\",\"view\":\"v1(X, Y) :- r(X, Y), "
            "X < 5\",\"views\":1}");
  std::string rewrite = client.RoundTrip(
      "{\"op\":\"rewrite\",\"query\":\"q(X) :- r(X, Y), X < 3.\"}");
  EXPECT_EQ(rewrite.rfind("{\"ok\":true,\"op\":\"rewrite\"", 0), 0u)
      << rewrite;
  EXPECT_EQ(Field(rewrite, "text"), "q(X) :- v1(X, Y), X < 3");
}

// `classify`'s algorithm text names the algorithm `rewrite` runs for the
// same query over the session's views: one query per class, and the
// CQAC-SI query over SI and over non-SI views.
TEST(ServeTest, ClassifyNamesTheAlgorithmRewriteRuns) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.RoundTrip(
      "{\"op\":\"view\",\"session\":\"si\",\"rule\":\"v(X, Y) :- "
      "e(X, Y).\"}");
  client.RoundTrip(
      "{\"op\":\"view\",\"session\":\"vv\",\"rule\":\"w(X, Y) :- "
      "e(X, Y), X < Y.\"}");
  const std::map<std::string, std::string> kFunction = {
      {"lsi-mcr", "RewriteLSIQuery"},
      {"si-datalog", "RewriteSiQueryDatalog"},
      {"bucket", "BucketRewrite"}};
  const struct {
    const char* session;
    const char* query;
    const char* choice;
  } kCases[] = {
      {"si", "q(X) :- e(X, Y).", "lsi-mcr"},                    // CQ
      {"si", "q(X) :- e(X, Y), X < 3.", "lsi-mcr"},             // LSI
      {"si", "q(X) :- e(X, Y), 3 < X.", "lsi-mcr"},             // RSI
      {"si", "q() :- e(X, Y), e(Y, Z), 5 < X, Z < 8.", "si-datalog"},
      {"vv", "q() :- e(X, Y), e(Y, Z), 5 < X, Z < 8.", "bucket"},  // CQAC-SI
      {"si", "q(X) :- e(X, Y), X < 9, Y < 9, 1 < X, 1 < Y.", "bucket"},  // SI
      {"si", "q(X) :- e(X, Y), X < Y.", "bucket"},              // CQAC
  };
  for (const auto& c : kCases) {
    const std::string algorithm = Field(
        client.RoundTrip(StrCat("{\"op\":\"classify\",\"query\":",
                                JsonQuote(c.query), "}")),
        "algorithm");
    const std::string rewrite = client.RoundTrip(
        StrCat("{\"op\":\"rewrite\",\"session\":\"", c.session,
               "\",\"query\":", JsonQuote(c.query), "}"));
    Result<JsonValue> json = ParseJson(rewrite);
    ASSERT_TRUE(json.ok()) << rewrite;
    const JsonValue* plan = json.value().Find("plan");
    ASSERT_NE(plan, nullptr) << rewrite;
    const JsonValue* decisions = plan->Find("decisions");
    ASSERT_TRUE(decisions != nullptr && decisions->array_items().size() == 1)
        << rewrite;
    const JsonValue* choice = decisions->array_items()[0].Find("choice");
    ASSERT_NE(choice, nullptr) << rewrite;
    EXPECT_EQ(choice->string_value(), c.choice) << c.query;
    EXPECT_NE(algorithm.find(kFunction.at(choice->string_value())),
              std::string::npos)
        << c.query << ": " << algorithm;
  }
}

TEST(ServeTest, MalformedAndOversizedRequestsGetStructuredErrors) {
  ServerOptions options;
  options.max_request_bytes = 64;
  Server server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  TestClient bad(server.port());
  std::string parse_error = bad.RoundTrip("this is not json");
  EXPECT_NE(parse_error.find("\"code\":\"parse_error\""), std::string::npos)
      << parse_error;
  // The connection survives a parse error.
  EXPECT_EQ(bad.RoundTrip("{\"op\":\"ping\"}"), "{\"ok\":true,\"op\":\"ping\"}");

  // An oversized line is answered with too_large, then the connection is
  // closed (framing past the cap is unrecoverable).
  TestClient big(server.port());
  std::string oversized(100, 'x');
  std::string too_large = big.RoundTrip(oversized);
  EXPECT_NE(too_large.find("\"code\":\"too_large\""), std::string::npos)
      << too_large;
  EXPECT_EQ(big.RecvLine(), "");  // EOF: server closed the connection
}

TEST(ServeTest, ExpiredDeadlineOverTheWire) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // budget_deadline_test's adversarial containment instance with an
  // already-expired deadline: the structured error must come back promptly
  // and the server must stay healthy for the next request.
  std::string candidate =
      "q(A) :- r(A,B), r(B,C), r(C,D), r(D,A), r(A,C), r(B,D), r(C,A), "
      "r(D,B), r(B,A), r(D,C)";
  std::string query = "q(X0) :- ";
  for (int i = 0; i < 14; ++i)
    query += StrCat(i ? ", " : "", "r(X", i, ", X", i + 1, ")");
  query += ", X0 < X14";

  TestClient client(server.port());
  auto start = steady_clock::now();
  std::string response = client.RoundTrip(
      StrCat("{\"op\":\"contain\",\"timeout_ms\":0,\"query\":",
             JsonQuote(query), ",\"candidate\":", JsonQuote(candidate), "}"));
  auto elapsed = steady_clock::now() - start;
  EXPECT_NE(response.find("\"code\":\"resource_exhausted\""),
            std::string::npos)
      << response;
  EXPECT_LT(elapsed, milliseconds(5000));
  EXPECT_EQ(client.RoundTrip("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"op\":\"ping\"}");
}

TEST(ServeTest, RewriteMatchesDirectLibraryCallByteForByte) {
  // The demo.cqac workload: serve's rewrite "text" must be exactly the
  // UnionQuery::ToString() a direct library call (and hence cqac_shell)
  // produces.
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const std::string v1 = "v1(Y, Z) :- r(X), s(Y, Z), Y <= X, X <= Z.";
  const std::string v2 = "v2(Y, Z) :- r(X), s(Y, Z), Y <= X, X < Z.";
  const std::string q1 = "q1(A) :- r(A), A < 4.";

  TestClient client(server.port());
  client.RoundTrip(StrCat("{\"op\":\"view\",\"rule\":", JsonQuote(v1), "}"));
  client.RoundTrip(StrCat("{\"op\":\"view\",\"rule\":", JsonQuote(v2), "}"));
  std::string response = client.RoundTrip(
      StrCat("{\"op\":\"rewrite\",\"query\":", JsonQuote(q1), "}"));

  EngineContext ctx;
  ViewSet views;
  ASSERT_TRUE(views.Add(MustParseQuery(v1)).ok());
  ASSERT_TRUE(views.Add(MustParseQuery(v2)).ok());
  Result<UnionQuery> expected =
      RewriteLsiQuery(ctx, MustParseQuery(q1), views);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_FALSE(expected.value().empty());
  EXPECT_EQ(Field(response, "text"), expected.value().ToString());
}

TEST(ServeTest, ConcurrentClientsMatchSerialReplayByteForByte) {
  // Eight clients, each in its own session, each running the same request
  // program. Requests are serialized on the engine thread and sessions are
  // isolated, so every client must receive exactly the byte sequence a
  // serial single-client replay produces — and zero protocol errors.
  ServerOptions options;
  options.threads_per_shard = 4;
  Server server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  auto program = [](const std::string& session) {
    std::vector<std::string> lines;
    auto add = [&](const std::string& body) {
      lines.push_back(
          StrCat("{\"op\":\"", body, ",\"session\":\"", session, "\"}"));
    };
    add("view\",\"rule\":\"v1(Y, Z) :- r(X), s(Y, Z), Y <= X, X <= Z.\"");
    add("view\",\"rule\":\"v2(Y, Z) :- r(X), s(Y, Z), Y <= X, X < Z.\"");
    add("classify\",\"query\":\"q1(A) :- r(A), A < 4.\"");
    add("rewrite\",\"query\":\"q1(A) :- r(A), A < 4.\"");
    add("fact\",\"facts\":\"r(2). s(2, 2). s(9, 9). s(1, 5).\"");
    add("answers\",\"query\":\"q1(A) :- r(A), A < 4.\"");
    add("contain\",\"query\":\"q1(A) :- r(A), A < 4.\","
        "\"candidate\":\"p(A) :- v1(A, A), A < 4\"");
    return lines;
  };

  // Serial baseline in session "serial". Responses only differ across
  // sessions in the echoed envelope, which session-independent bodies keep
  // identical — the program carries no "id" and no session-named fields.
  std::vector<std::string> baseline;
  {
    TestClient client(server.port());
    for (const std::string& line : program("serial"))
      baseline.push_back(client.RoundTrip(line));
  }
  for (const std::string& response : baseline)
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;

  constexpr int kClients = 8;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(server.port());
      for (const std::string& line : program(StrCat("client", c)))
        got[c].push_back(client.RoundTrip(line));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
      EXPECT_EQ(got[c][i], baseline[i]) << "client " << c << " request " << i;
  }
}

TEST(ServeTest, ShardSweepMatchesSerialReplayByteForByte) {
  // The same 8-client program as above, swept across shard counts. The
  // determinism contract (docs/architecture.md) says every session's
  // response stream is byte-identical to a serial replay at EVERY shard
  // and thread count — shard routing, per-shard queues, and the writer
  // sequencer must never leak into response bytes.
  auto program = [](const std::string& session) {
    std::vector<std::string> lines;
    auto add = [&](const std::string& body) {
      lines.push_back(
          StrCat("{\"op\":\"", body, ",\"session\":\"", session, "\"}"));
    };
    add("view\",\"rule\":\"v1(Y, Z) :- r(X), s(Y, Z), Y <= X, X <= Z.\"");
    add("view\",\"rule\":\"v2(Y, Z) :- r(X), s(Y, Z), Y <= X, X < Z.\"");
    add("classify\",\"query\":\"q1(A) :- r(A), A < 4.\"");
    add("rewrite\",\"query\":\"q1(A) :- r(A), A < 4.\"");
    add("fact\",\"facts\":\"r(2). s(2, 2). s(9, 9). s(1, 5).\"");
    add("answers\",\"query\":\"q1(A) :- r(A), A < 4.\"");
    add("contain\",\"query\":\"q1(A) :- r(A), A < 4.\","
        "\"candidate\":\"p(A) :- v1(A, A), A < 4\"");
    return lines;
  };

  // Serial baseline from a plain single-shard server.
  std::vector<std::string> baseline;
  {
    Server server(ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    TestClient client(server.port());
    for (const std::string& line : program("serial"))
      baseline.push_back(client.RoundTrip(line));
  }
  for (const std::string& response : baseline)
    ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ServerOptions options;
    options.shards = shards;
    options.threads_per_shard = 2;  // per-shard owned pools get exercised
    Server server(std::move(options));
    ASSERT_TRUE(server.Start().ok());
    ASSERT_EQ(server.shards(), shards);

    constexpr int kClients = 8;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        TestClient client(server.port());
        for (const std::string& line : program(StrCat("client", c)))
          got[c].push_back(client.RoundTrip(line));
      });
    }
    for (std::thread& t : threads) t.join();

    for (int c = 0; c < kClients; ++c) {
      ASSERT_EQ(got[c].size(), baseline.size()) << "shards " << shards;
      for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(got[c][i], baseline[i])
            << "shards " << shards << " client " << c << " request " << i;
    }
  }
}

TEST(ServeTest, SessionsPinnedToDifferentShardsAreIsolated) {
  // Pick two session names that provably land on different shards of a
  // 2-shard server, then verify neither can observe the other's views or
  // facts, and that the `stats` op reports the pinning truthfully.
  const size_t kShards = 2;
  std::string on0, on1;
  for (int i = 0; on0.empty() || on1.empty(); ++i) {
    std::string name = StrCat("tenant", i);
    (ShardForSession(name, kShards) == 0 ? on0 : on1) = name;
    ASSERT_LT(i, 64) << "hash should hit both shards quickly";
  }

  ServerOptions options;
  options.shards = kShards;
  Server server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());

  auto in = [&](const std::string& session, const std::string& body) {
    return client.RoundTrip(
        StrCat("{\"op\":\"", body, ",\"session\":\"", session, "\"}"));
  };

  // Tenant on shard 0 defines a view and facts; its own answers see them.
  ASSERT_EQ(in(on0, "view\",\"rule\":\"v1(X, Y) :- r(X, Y), X < 5.\"")
                .rfind("{\"ok\":true", 0),
            0u);
  ASSERT_EQ(in(on0, "fact\",\"facts\":\"r(1, 2). r(4, 7).\"")
                .rfind("{\"ok\":true", 0),
            0u);
  std::string answers0 =
      in(on0, "answers\",\"query\":\"q(X) :- r(X, Y), X < 3.\"");
  EXPECT_NE(answers0.find("\"count\":1"), std::string::npos) << answers0;

  // The tenant on shard 1 sees an empty view registry: rewriting finds no
  // usable view.
  std::string rewrite =
      in(on1, "rewrite\",\"query\":\"q(X) :- r(X, Y), X < 3.\"");
  EXPECT_EQ(rewrite.find("v1(X, Y)"), std::string::npos) << rewrite;

  // Even after defining the same view, shard 0's facts stay invisible.
  ASSERT_EQ(in(on1, "view\",\"rule\":\"v1(X, Y) :- r(X, Y), X < 5.\"")
                .rfind("{\"ok\":true", 0),
            0u);
  std::string answers1 =
      in(on1, "answers\",\"query\":\"q(X) :- r(X, Y), X < 3.\"");
  EXPECT_NE(answers1.find("\"count\":0"), std::string::npos) << answers1;

  // Session-scope stats name the shard each session is pinned to.
  std::string stats0 = in(on0, "stats\",\"scope\":\"session\"");
  std::string stats1 = in(on1, "stats\",\"scope\":\"session\"");
  EXPECT_NE(stats0.find("\"shard\":0"), std::string::npos) << stats0;
  EXPECT_NE(stats1.find("\"shard\":1"), std::string::npos) << stats1;

  // Global-scope stats aggregate across shards: both sessions appear, and
  // the per-shard breakdown is attached.
  std::string global =
      client.RoundTrip("{\"op\":\"stats\",\"scope\":\"global\"}");
  EXPECT_NE(global.find("\"shards\":2"), std::string::npos) << global;
  EXPECT_NE(global.find("\"shard_stats\":["), std::string::npos) << global;
  EXPECT_NE(global.find(StrCat("\"name\":\"", on0, "\"")), std::string::npos)
      << global;
  EXPECT_NE(global.find(StrCat("\"name\":\"", on1, "\"")), std::string::npos)
      << global;
  EXPECT_NE(global.find("\"rejected_overloaded\":0"), std::string::npos)
      << global;
}

// perfbench checks a server's engine counters against its in-process
// replay by name: the CQAC_COUNTER list of DeterministicCounters
// (perfbench/replay.cc, frozen with the benchmark). A name missing from
// `stats` makes every benchmark run report "correct": false, so each one
// must stay a key of every shard's engine object.
TEST(ServeTest, StatsCarriesEveryCounterPerfbenchReads) {
  std::filesystem::path file =
      std::filesystem::path(CQAC_SOURCE_DIR) / "perfbench" / "replay.cc";
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << file;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string src = buf.str();
  // The list runs from the macro's definition inside DeterministicCounters
  // to its #undef.
  size_t begin = src.find("#define CQAC_COUNTER(",
                          src.find("DeterministicCounters("));
  ASSERT_NE(begin, std::string::npos);
  begin = src.find('\n', begin);
  const size_t end = src.find("#undef CQAC_COUNTER", begin);
  ASSERT_NE(end, std::string::npos);
  std::vector<std::string> names;
  const std::regex counter(R"re(CQAC_COUNTER\((\w+)\))re");
  for (std::sregex_iterator it(src.begin() + begin, src.begin() + end, counter),
       last;
       it != last; ++it)
    names.push_back((*it)[1].str());
  ASSERT_FALSE(names.empty());

  ServerOptions options;
  options.shards = 2;
  Server server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  const std::string reply = client.RoundTrip("{\"op\":\"stats\"}");
  Result<JsonValue> stats = ParseJson(reply);
  ASSERT_TRUE(stats.ok()) << reply;
  const JsonValue* shards = stats.value().Find("shard_stats");
  ASSERT_NE(shards, nullptr) << reply;
  ASSERT_EQ(shards->array_items().size(), 2u) << reply;
  for (const JsonValue& shard : shards->array_items()) {
    const JsonValue* engine = shard.Find("engine");
    ASSERT_NE(engine, nullptr) << reply;
    for (const std::string& name : names)
      EXPECT_NE(engine->Find(name), nullptr) << name << " missing: " << reply;
  }
}

/// Loads the complete digraph on 8 nodes into `session`.
std::string DigraphFacts(const std::string& session) {
  std::string facts;
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) facts += StrCat("e(", i, ", ", j, "). ");
  return StrCat("{\"op\":\"fact\",\"session\":", JsonQuote(session),
                ",\"facts\":", JsonQuote(facts), "}");
}

/// An eval over DigraphFacts that only its deadline or a cancel ends: the
/// 10-step walks number 8^11, and the join checks the deadline as it goes.
std::string SlowEval(const std::string& session, int timeout_ms) {
  std::string query = "q(X0) :- ";
  for (int i = 0; i < 10; ++i)
    query += StrCat("e(X", i, ", X", i + 1, "), ");
  query += "X10 < X0";
  return StrCat("{\"op\":\"eval\",\"session\":", JsonQuote(session),
                ",\"timeout_ms\":", timeout_ms, ",\"query\":",
                JsonQuote(query), "}");
}

TEST(ServeTest, ClientDisconnectCancelsInFlightRequest) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Park a long eval on the engine thread with a generous deadline, then
  // vanish. The reader thread must flag cancellation, the engine must
  // abandon the request at the next checkpoint, and a new client's ping
  // must answer long before the 20s deadline would expire.
  TestClient doomed(server.port());
  EXPECT_EQ(doomed.RoundTrip(DigraphFacts("default")).rfind("{\"ok\":true", 0),
            0u);
  EXPECT_TRUE(doomed.SendLine(SlowEval("default", 20000)));
  // Give the engine thread time to dequeue the request (it is idle, so this
  // is ample), then disconnect without reading the answer.
  std::this_thread::sleep_for(milliseconds(300));
  doomed.Close();

  TestClient next(server.port());
  auto start = steady_clock::now();
  EXPECT_EQ(next.RoundTrip("{\"op\":\"ping\"}"),
            "{\"ok\":true,\"op\":\"ping\"}");
  EXPECT_LT(steady_clock::now() - start, milliseconds(10000))
      << "disconnect did not cancel the in-flight request";
}

// One connection sends to two shards without reading: responses arrive in
// request order, a full shard queue answers "overloaded" for that shard
// only, `stats` reports what the engine counted, and a shutdown pipelined
// behind an in-flight request answers both before Wait() returns.
TEST(ServeTest, PipelinedRequestsKeepOrderThroughOverloadAndDrain) {
  const size_t kShards = 2;
  std::string on0, on1;
  for (int i = 0; on0.empty() || on1.empty(); ++i) {
    std::string name = StrCat("tenant", i);
    (ShardForSession(name, kShards) == 0 ? on0 : on1) = name;
    ASSERT_LT(i, 64) << "hash should hit both shards quickly";
  }
  ServerOptions options;
  options.shards = kShards;
  options.max_queue = 1;
  Server server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  auto ping = [](const std::string& session, int id) {
    return StrCat("{\"op\":\"ping\",\"session\":", JsonQuote(session),
                  ",\"id\":", id, "}");
  };

  // Shard 0's engine dequeues the slow request; the first later request
  // fills its one-slot queue and the second is turned away.
  ASSERT_EQ(client.RoundTrip(DigraphFacts(on0)).rfind("{\"ok\":true", 0), 0u);
  ASSERT_TRUE(client.SendLine(SlowEval(on0, 1500)));
  std::this_thread::sleep_for(milliseconds(300));
  ASSERT_TRUE(client.SendLine(ping(on1, 1)));
  ASSERT_TRUE(client.SendLine(ping(on0, 2)));
  ASSERT_TRUE(client.SendLine(ping(on0, 3)));
  std::string slow = client.RecvLine();
  EXPECT_NE(slow.find("\"code\":\"resource_exhausted\""), std::string::npos)
      << slow;
  EXPECT_EQ(client.RecvLine(), "{\"ok\":true,\"op\":\"ping\",\"id\":1}");
  EXPECT_EQ(client.RecvLine(), "{\"ok\":true,\"op\":\"ping\",\"id\":2}");
  EXPECT_EQ(client.RecvLine(),
            "{\"ok\":false,\"op\":\"ping\",\"id\":3,\"error\":{\"code\":"
            "\"overloaded\",\"message\":\"shard 0 request queue is full; "
            "retry later\"}}");

  const std::string reply = client.RoundTrip(
      StrCat("{\"op\":\"stats\",\"session\":", JsonQuote(on1), "}"));
  Result<JsonValue> stats = ParseJson(reply);
  ASSERT_TRUE(stats.ok()) << reply;
  const JsonValue* shards = stats.value().Find("shard_stats");
  ASSERT_NE(shards, nullptr) << reply;
  ASSERT_EQ(shards->array_items().size(), kShards) << reply;
  const JsonValue& shard0 = shards->array_items()[0];
  const JsonValue* engine = shard0.Find("engine");
  ASSERT_NE(engine, nullptr) << reply;
  auto count = [&](const JsonValue& object, const char* key) {
    const JsonValue* v = object.Find(key);
    EXPECT_NE(v, nullptr) << key << " missing: " << reply;
    return v != nullptr ? v->number_value() : -1;
  };
  EXPECT_EQ(count(shard0, "rejected_overloaded"), 1);
  EXPECT_EQ(count(shard0, "queue_depth_peak"), 1);
  EXPECT_EQ(count(*engine, "serve_overload_rejections"), 1);
  EXPECT_EQ(count(*engine, "serve_queue_peak"), 1);

  // Shard 1 runs the shutdown while shard 0 still works; the drain waits
  // for shard 0 to answer, and the sequencer keeps the two in order.
  ASSERT_TRUE(client.SendLine(SlowEval(on0, 300)));
  ASSERT_TRUE(client.SendLine(
      StrCat("{\"op\":\"shutdown\",\"session\":", JsonQuote(on1), "}")));
  slow = client.RecvLine();
  EXPECT_NE(slow.find("\"code\":\"resource_exhausted\""), std::string::npos)
      << slow;
  EXPECT_EQ(client.RecvLine(),
            "{\"ok\":true,\"op\":\"shutdown\",\"draining\":true}");
  server.Wait();
}

// A client that pipelines requests and never reads fills its socket, so
// the shard's engine thread blocks in send. After kSendTimeout the server
// counts the connection closed and drops its remaining responses, so a
// drain requested meanwhile still ends.
TEST(ServeTest, DrainEndsWhileAClientStopsReading) {
  ServerOptions options;
  options.max_queue = 8192;  // admit every request below
  Server server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port(), /*receive_buffer=*/4096);
  // About 2.6 KB per `stats` response, 10 MB in all: far more than the two
  // socket buffers hold, so the engine thread blocks in send.
  const size_t kRequests = 4000;
  std::string requests;
  for (size_t i = 0; i < kRequests; ++i) requests += "{\"op\":\"stats\"}\n";
  requests.pop_back();
  ASSERT_TRUE(client.SendLine(requests));
  const steady_clock::time_point give_up =
      steady_clock::now() + std::chrono::seconds(10);
  while (server.ShardSummaries()[0].enqueued < kRequests) {
    ASSERT_LT(steady_clock::now(), give_up) << "the requests never arrived";
    std::this_thread::sleep_for(milliseconds(10));
  }

  server.RequestDrain();
  std::future<void> waited =
      std::async(std::launch::async, [&server] { server.Wait(); });
  const bool drained =
      waited.wait_for(kSendTimeout + std::chrono::seconds(5)) ==
      std::future_status::ready;
  // Without the send timeout only the client's close would end the drain.
  client.Close();
  waited.wait();
  EXPECT_TRUE(drained) << "the drain waited on a client that stopped reading";
}

TEST(ServeTest, ShutdownOpDrainsGracefully) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  TestClient client(port);
  EXPECT_EQ(client.RoundTrip("{\"op\":\"shutdown\"}"),
            "{\"ok\":true,\"op\":\"shutdown\",\"draining\":true}");
  server.Wait();
  server.Stop();

  // The listener is gone: a fresh connection must be refused.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_NE(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
}

TEST(ServeTest, CertifyFlagAttachesAuditReports) {
  Server server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());

  ASSERT_EQ(client.RoundTrip("{\"op\":\"view\",\"rule\":\"v1(X, Y) :- "
                             "r(X, Y), X < 5.\"}")
                .rfind("{\"ok\":true", 0),
            0u);

  // Certified fact commit: the maintenance certificate is replayed and the
  // audit report is attached with zero failures.
  std::string fact = client.RoundTrip(
      "{\"op\":\"fact\",\"facts\":\"r(1, 2). r(4, 7).\",\"certify\":true}");
  EXPECT_NE(fact.find("\"audit\":{\"obligations\":["), std::string::npos)
      << fact;
  EXPECT_NE(fact.find("\"kind\":\"ivm-commit\""), std::string::npos) << fact;
  EXPECT_NE(fact.find("\"failures\":0"), std::string::npos) << fact;

  // Certified rewrite: the static obligations ride along.
  std::string rewrite = client.RoundTrip(
      "{\"op\":\"rewrite\",\"query\":\"q(X) :- r(X, Y), X < 3.\","
      "\"certify\":true}");
  EXPECT_NE(rewrite.find("\"audit\":{\"obligations\":["), std::string::npos)
      << rewrite;
  EXPECT_NE(rewrite.find("\"failures\":0"), std::string::npos) << rewrite;
  // Without the flag the response carries no audit field.
  std::string plain = client.RoundTrip(
      "{\"op\":\"rewrite\",\"query\":\"q(X) :- r(X, Y), X < 3.\"}");
  EXPECT_EQ(plain.find("\"audit\""), std::string::npos) << plain;

  // Certified eval: engine vs reference evaluation.
  std::string eval = client.RoundTrip(
      "{\"op\":\"eval\",\"query\":\"q(X) :- r(X, Y), X < 3.\","
      "\"certify\":true}");
  EXPECT_NE(eval.find("\"kind\":\"eval\""), std::string::npos) << eval;
  EXPECT_NE(eval.find("\"verdict\":\"certified\""), std::string::npos) << eval;

  // Certified retract keeps base and views agreeing.
  std::string retract = client.RoundTrip(
      "{\"op\":\"retract\",\"facts\":\"r(1, 2).\",\"certify\":true}");
  EXPECT_NE(retract.find("\"kind\":\"ivm-commit\""), std::string::npos)
      << retract;
  EXPECT_NE(retract.find("\"failures\":0"), std::string::npos) << retract;
}

}  // namespace
}  // namespace serve
}  // namespace cqac
