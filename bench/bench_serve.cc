// E15: cqac_serve cold-vs-warm latency and multi-client throughput.
//
// Cold vs warm: the point of a long-lived server is that the shared
// EngineContext keeps the interner and the containment decision cache hot
// across requests. The first pass over a batch of distinct rewrite requests
// pays full containment cost; the second pass answers the same batch from
// the memo. Both passes go over a real loopback socket, so the delta is
// end-to-end protocol latency, not just engine time.
//
// Throughput: N concurrent clients (each in its own session) pound the
// server with a mixed request program. On one shard requests serialize on
// the single engine thread, so this measures protocol + dispatch overhead
// under contention; the sharded-scaling benchmark then sweeps --shards
// 1/2/4/8 with the same population to measure how throughput scales when
// sessions spread across independent engine workers. Every configuration
// re-verifies the serve determinism contract — zero protocol errors and
// every concurrent client's responses byte-identical to a serial replay.
//
// Run at --threads 0 / 4 / 8 to measure with and without engine fan-out
// (in the sharded benchmark --threads is the per-shard pool size).
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_threads.h"
#include "src/base/strings.h"
#include "src/ir/json.h"
#include "src/serve/server.h"

namespace cqac {
namespace {

using serve::Server;
using serve::ServerOptions;

/// A blocking line-oriented loopback client; aborts on transport failure
/// (a broken transport invalidates the whole measurement).
class BenchClient {
 public:
  explicit BenchClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0) {
      std::fprintf(stderr, "bench_serve: connect failed\n");
      std::abort();
    }
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string RoundTrip(const std::string& line) {
    std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) std::abort();
      sent += static_cast<size_t>(n);
    }
    size_t pos;
    while ((pos = acc_.find('\n')) == std::string::npos) {
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) std::abort();
      acc_.append(buf, static_cast<size_t>(n));
    }
    std::string response = acc_.substr(0, pos);
    acc_.erase(0, pos + 1);
    return response;
  }

 private:
  int fd_ = -1;
  std::string acc_;
};

bool IsOk(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

// The integration-style workload of bench_end_to_end: three views and a
// family of distinct price-threshold queries, each a separate containment
// problem for the rewriter.
const char* kViewRules[] = {
    "dealers_web(C, L) :- car(C, D), loc(D, L).",
    "budget_cars(C) :- price(C, P), P < 25.",
    "pricing_api(C, P) :- price(C, P).",
};

std::string ViewRequest(const std::string& session, const char* rule) {
  return StrCat("{\"op\":\"view\",\"session\":", JsonQuote(session),
                ",\"rule\":", JsonQuote(rule), "}");
}

std::string RewriteRequest(const std::string& session, int threshold) {
  return StrCat(
      "{\"op\":\"rewrite\",\"session\":", JsonQuote(session),
      ",\"query\":\"q(C) :- car(C, D), loc(D, irvine), price(C, P), P < ",
      threshold, "\"}");
}

ServerOptions MakeOptions() {
  ServerOptions options;
  options.threads_per_shard = static_cast<size_t>(bench::ThreadsFlag());
  return options;
}

// ---- cold vs warm ---------------------------------------------------------

void BM_ServeRewriteColdVsWarm(benchmark::State& state) {
  const int kQueries = static_cast<int>(state.range(0));
  double cold_total = 0, warm_total = 0;
  int64_t passes = 0;
  for (auto _ : state) {
    // A fresh server per iteration: "cold" means an empty interner and an
    // empty decision cache, exactly the state after process start.
    Server server(MakeOptions());
    if (!server.Start().ok()) {
      state.SkipWithError("server failed to start");
      return;
    }
    BenchClient client(server.port());
    for (const char* rule : kViewRules)
      if (!IsOk(client.RoundTrip(ViewRequest("bench", rule))))
        state.SkipWithError("view setup failed");

    auto pass = [&] {
      for (int i = 0; i < kQueries; ++i)
        if (!IsOk(client.RoundTrip(RewriteRequest("bench", 10 + i))))
          state.SkipWithError("rewrite failed");
    };
    cold_total += bench::TimeOnceMs(pass);
    warm_total += bench::TimeOnceMs(pass);
    ++passes;
  }
  state.counters["cold_pass_ms"] = cold_total / static_cast<double>(passes);
  state.counters["warm_pass_ms"] = warm_total / static_cast<double>(passes);
  state.counters["warm_over_cold"] =
      cold_total > 0 ? warm_total / cold_total : 0;
  state.counters["threads"] = static_cast<double>(bench::ThreadsFlag());
}
BENCHMARK(BM_ServeRewriteColdVsWarm)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---- ping floor -----------------------------------------------------------

// Pure protocol round-trip latency: socket framing, JSON parse, envelope
// validation, dispatch — no engine work at all.
void BM_ServePingLatency(benchmark::State& state) {
  Server server(MakeOptions());
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  BenchClient client(server.port());
  for (auto _ : state) {
    std::string response = client.RoundTrip("{\"op\":\"ping\"}");
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServePingLatency);

// ---- concurrent throughput + determinism ----------------------------------

std::vector<std::string> ClientProgram(const std::string& session) {
  std::vector<std::string> lines;
  for (const char* rule : kViewRules) lines.push_back(ViewRequest(session, rule));
  for (int i = 0; i < 4; ++i) lines.push_back(RewriteRequest(session, 20 + i));
  lines.push_back(StrCat(
      "{\"op\":\"contain\",\"session\":", JsonQuote(session),
      ",\"query\":\"q(C) :- car(C, D), loc(D, irvine), price(C, P), P < 30\","
      "\"candidate\":\"p(C) :- dealers_web(C, irvine), budget_cars(C)\"}"));
  lines.push_back(StrCat(
      "{\"op\":\"classify\",\"session\":", JsonQuote(session),
      ",\"query\":\"q(C) :- car(C, D), loc(D, irvine), price(C, P), "
      "P < 30\"}"));
  return lines;
}

void BM_ServeConcurrentClients(benchmark::State& state) {
  const int kClients = static_cast<int>(state.range(0));
  Server server(MakeOptions());
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  // Serial baseline, also the warm-up pass: every later response must be
  // byte-identical to these (responses carry no session-dependent bytes).
  std::vector<std::string> baseline;
  {
    BenchClient client(server.port());
    for (const std::string& line : ClientProgram("baseline"))
      baseline.push_back(client.RoundTrip(line));
  }

  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> byte_mismatches{0};
  int64_t requests = 0;
  int epoch = 0;
  for (auto _ : state) {
    // Fresh session names per epoch keep view registration idempotent.
    ++epoch;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      std::string session = StrCat("e", epoch, "c", c);
      threads.emplace_back([&, session] {
        BenchClient client(server.port());
        std::vector<std::string> program = ClientProgram(session);
        for (size_t i = 0; i < program.size(); ++i) {
          std::string response = client.RoundTrip(program[i]);
          if (!IsOk(response)) protocol_errors.fetch_add(1);
          if (response != baseline[i]) byte_mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    requests += static_cast<int64_t>(kClients) *
                static_cast<int64_t>(baseline.size());
    // Drop this epoch's sessions so iteration count never trips the
    // server's bounded session table.
    BenchClient janitor(server.port());
    for (int c = 0; c < kClients; ++c)
      janitor.RoundTrip(StrCat("{\"op\":\"reset\",\"session\":\"e", epoch,
                               "c", c, "\"}"));
  }
  state.SetItemsProcessed(requests);
  state.counters["clients"] = kClients;
  state.counters["protocol_errors"] =
      static_cast<double>(protocol_errors.load());
  state.counters["byte_mismatches"] =
      static_cast<double>(byte_mismatches.load());
  state.counters["threads"] = static_cast<double>(bench::ThreadsFlag());
  state.counters["containment_hit_rate"] =
      server.context().stats().ContainmentHitRate();
  if (protocol_errors.load() != 0)
    state.SkipWithError("protocol errors under concurrency");
  if (byte_mismatches.load() != 0)
    state.SkipWithError("responses diverged from the serial baseline");
}
BENCHMARK(BM_ServeConcurrentClients)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---- sharded scaling curve ------------------------------------------------

// Eight concurrent clients against --shards = Arg engine shards: the
// capacity-planning curve of docs/serve.md. Sessions pin to shards by name
// hash, so with more shards the same client population spreads across more
// engine threads. Alongside throughput this records the per-shard
// backpressure counters (enqueued / rejected_overloaded / queue-depth
// peak) that the `stats` op exposes, and re-verifies the determinism
// contract at every shard count: zero protocol errors, every response
// byte-identical to a serial replay.
//
// Read shard*_enqueued for balance: a skewed session population parks on
// few shards and the curve flattens no matter how many shards you add.
void BM_ServeShardedScaling(benchmark::State& state) {
  const size_t kShards = static_cast<size_t>(state.range(0));
  constexpr int kClients = 8;
  ServerOptions options;
  options.shards = kShards;
  options.threads_per_shard = static_cast<size_t>(bench::ThreadsFlag());
  Server server(std::move(options));
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  std::vector<std::string> baseline;
  {
    BenchClient client(server.port());
    for (const std::string& line : ClientProgram("baseline"))
      baseline.push_back(client.RoundTrip(line));
  }

  std::atomic<int64_t> protocol_errors{0};
  std::atomic<int64_t> byte_mismatches{0};
  int64_t requests = 0;
  int epoch = 0;
  for (auto _ : state) {
    ++epoch;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      std::string session = StrCat("e", epoch, "c", c);
      threads.emplace_back([&, session] {
        BenchClient client(server.port());
        std::vector<std::string> program = ClientProgram(session);
        for (size_t i = 0; i < program.size(); ++i) {
          std::string response = client.RoundTrip(program[i]);
          if (!IsOk(response)) protocol_errors.fetch_add(1);
          if (response != baseline[i]) byte_mismatches.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    requests += static_cast<int64_t>(kClients) *
                static_cast<int64_t>(baseline.size());
    BenchClient janitor(server.port());
    for (int c = 0; c < kClients; ++c)
      janitor.RoundTrip(StrCat("{\"op\":\"reset\",\"session\":\"e", epoch,
                               "c", c, "\"}"));
  }
  state.SetItemsProcessed(requests);
  state.counters["shards"] = static_cast<double>(kShards);
  state.counters["clients"] = kClients;
  state.counters["threads_per_shard"] =
      static_cast<double>(bench::ThreadsFlag());
  state.counters["protocol_errors"] =
      static_cast<double>(protocol_errors.load());
  state.counters["byte_mismatches"] =
      static_cast<double>(byte_mismatches.load());
  for (const serve::ShardSummary& s : server.ShardSummaries()) {
    std::string prefix = StrCat("shard", s.shard, "_");
    state.counters[StrCat(prefix, "enqueued")] =
        static_cast<double>(s.enqueued);
    state.counters[StrCat(prefix, "rejected")] =
        static_cast<double>(s.engine.serve_overload_rejections);
    state.counters[StrCat(prefix, "queue_peak")] =
        static_cast<double>(s.engine.serve_queue_peak);
  }
  if (protocol_errors.load() != 0)
    state.SkipWithError("protocol errors under sharding");
  if (byte_mismatches.load() != 0)
    state.SkipWithError("responses diverged from the serial baseline");
}
BENCHMARK(BM_ServeShardedScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cqac

CQAC_BENCHMARK_MAIN_WITH_JSON("serve")
