// cqac_serve — a long-lived rewriting server.
//
// Speaks the newline-delimited JSON protocol documented in docs/serve.md on
// a plain TCP socket bound to 127.0.0.1. The engine is sharded: --shards N
// runs N independent engine workers, each with its own EngineContext
// (interner + containment cache), session table, and request queue;
// sessions are pinned to shards by a stable hash of the session name, so
// repeated queries against the same view set answer from warm state on the
// same shard. --threads sets the intra-request fan-out pool *per shard*
// (shards scale across requests; threads scale within one).
//
// Durability: --data-dir DIR makes sessions durable — every acknowledged
// view / fact / retract is appended to a per-shard record log and compact
// snapshots bound recovery to an O(delta) log-tail replay (docs/
// durability.md). Restarting with the same --data-dir recovers every
// session before the socket opens. --fsync picks the sync policy
// (always | interval | never) and --snapshot-every the compaction cadence.
//
// Usage:
//   cqac_serve [--port N] [--shards N] [--threads N]
//              [--data-dir DIR] [--fsync POLICY] [--snapshot-every N]
//              [--default-timeout-ms N] [--max-timeout-ms N]
//              [--max-queue N] [--max-request-bytes N] [--max-sessions N]
//
// --port 0 (the default) binds an ephemeral port; the chosen port is
// printed as the first stdout line:  cqac_serve listening on 127.0.0.1:PORT
//
// Shutdown: SIGTERM / SIGINT or a `{"op":"shutdown"}` request drains
// gracefully — the listener closes, queued requests are answered, then the
// process exits 0.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <unistd.h>
#include <cstring>
#include <string>
#include <thread>

#include "src/base/strings.h"
#include "src/base/task_pool.h"
#include "src/serve/server.h"

namespace cqac {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: cqac_serve [--port N] [--shards N] [--threads N]\n"
      "                  [--data-dir DIR]\n"
      "                  [--fsync always|interval|never]\n"
      "                  [--snapshot-every N]\n"
      "                  [--default-timeout-ms N] [--max-timeout-ms N]\n"
      "                  [--max-queue N] [--max-request-bytes N]\n"
      "                  [--max-sessions N]\n"
      "  --shards N         engine shards, at most 4096 (default 1);\n"
      "                     sessions pin to shards\n"
      "  --threads N        TaskPool workers per shard, at most 256\n"
      "                     (default 0 = serial)\n"
      "  --data-dir DIR     durable sessions: per-shard log + snapshots;\n"
      "                     restart recovers every session (O(delta))\n"
      "  --fsync POLICY     always | interval (default) | never\n"
      "  --snapshot-every N compact after N logged records (default 4096,\n"
      "                     0 disables)\n");
  return 3;
}

int Run(int argc, char** argv) {
  constexpr size_t kMaxTimeoutMs = std::chrono::milliseconds::max().count();
  serve::ServerOptions options;
  size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    size_t n = 0;
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--port") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n > 65535) return Usage();
      options.port = static_cast<uint16_t>(n);
    } else if (arg == "--shards") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n == 0 || n > store::kMaxShards)
        return Usage();
      options.shards = n;
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n > TaskPool::kMaxThreads)
        return Usage();
      threads = n;
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (!v || *v == '\0') return Usage();
      options.data_dir = v;
    } else if (arg == "--fsync") {
      const char* v = next();
      if (!v) return Usage();
      Result<store::FsyncPolicy> policy = store::ParseFsyncPolicy(v);
      if (!policy.ok()) {
        std::fprintf(stderr, "cqac_serve: %s\n",
                     policy.status().ToString().c_str());
        return Usage();
      }
      options.store.fsync = policy.value();
    } else if (arg == "--snapshot-every") {
      const char* v = next();
      if (!v || !ParseSize(v, &n)) return Usage();
      options.store.snapshot_every = n;
    } else if (arg == "--default-timeout-ms") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n > kMaxTimeoutMs) return Usage();
      options.service.default_timeout = std::chrono::milliseconds(n);
    } else if (arg == "--max-timeout-ms") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n > kMaxTimeoutMs) return Usage();
      options.service.max_timeout = std::chrono::milliseconds(n);
    } else if (arg == "--max-queue") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n == 0) return Usage();
      options.max_queue = n;
    } else if (arg == "--max-request-bytes") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n == 0) return Usage();
      options.max_request_bytes = n;
    } else if (arg == "--max-sessions") {
      const char* v = next();
      if (!v || !ParseSize(v, &n) || n == 0) return Usage();
      options.service.max_sessions = n;
    } else {
      std::fprintf(stderr, "cqac_serve: unknown option '%s'\n", arg.c_str());
      return Usage();
    }
  }

  // Block the termination signals in every thread; a dedicated watcher
  // receives them via sigwait and triggers the graceful drain.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  // Each shard engine thread needs its own fan-out pool (a TaskPool has a
  // single caller slot), so the server owns one pool per shard.
  options.threads_per_shard = threads;
  std::string data_dir = options.data_dir;  // survives the move below
  serve::Server server(std::move(options));

  // Recover durable state before the socket opens.
  if (!data_dir.empty()) {
    serve::RecoverySummary recovery;
    Status opened = server.OpenStore(&recovery);
    if (!opened.ok()) {
      std::fprintf(stderr, "cqac_serve: recovery failed: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "cqac_serve: recovered %s: %s\n", data_dir.c_str(),
                 recovery.ToString().c_str());
  }

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cqac_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("cqac_serve listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::atomic<bool> watcher_exit{false};
  std::thread watcher([&] {
    while (true) {
      int sig = 0;
      if (sigwait(&sigs, &sig) != 0) return;
      if (watcher_exit.load(std::memory_order_acquire)) return;
      std::fprintf(stderr, "cqac_serve: signal %d, draining\n", sig);
      server.RequestDrain();
    }
  });

  server.Wait();
  watcher_exit.store(true, std::memory_order_release);
  // Unblock the watcher's sigwait: the signal must be process-directed —
  // raise() targets the calling thread, where SIGTERM is blocked and would
  // just sit pending forever.
  kill(getpid(), SIGTERM);
  watcher.join();
  server.Stop();
  std::fprintf(stderr, "cqac_serve: drained, exiting\n");
  return 0;
}

}  // namespace
}  // namespace cqac

int main(int argc, char** argv) { return cqac::Run(argc, argv); }
