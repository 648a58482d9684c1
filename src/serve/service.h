// The serve op layer: executes one parsed request against a shard's
// EngineContext and session table, producing the response line. This is
// the transport-free core of cqac_serve — the sharded TCP server
// (server.h) feeds it already-parsed requests from its per-shard queue;
// tests feed it raw lines directly.
//
// Threading: Execute/ExecuteParsed are NOT thread-safe; the server calls
// them from the owning shard's single engine thread only (see session.h
// for why that is the design). The engine work *inside* a request still
// fans out across the shard context's TaskPool workers. The cross-shard
// reads the global `stats` scope needs go through Summary() /
// set_cluster_view(), which touch only internally synchronized state
// (atomic counters, the mutex-guarded session index).
//
// Request semantics implemented here (normative doc: docs/serve.md):
//   * per-request deadline: `timeout_ms` (clamped to options.max_timeout,
//     defaulting to options.default_timeout) becomes Budget::deadline for
//     the duration of the request; expiry surfaces as a structured
//     "resource_exhausted" error;
//   * per-session accounting: engine-stat deltas of each request are added
//     to the owning session's running totals;
//   * `view`, `fact` and `retract` are store::SessionState::Apply followed
//     by the WAL append of the same (type, text) — the code path WAL replay
//     and cqac_shell run too. A failed one leaves the session and the log
//     unchanged; only automatic session creation persists, and it is
//     logged;
//   * `rewrite` and `answers` dispatch through ChooseRewriteAlgorithm
//     (src/rewriting/answer.h), exactly like cqac_shell, so serve-mode
//     output is byte-identical to shell output for the same inputs.
#ifndef CQAC_SERVE_SERVICE_H_
#define CQAC_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/engine/context.h"
#include "src/serve/protocol.h"
#include "src/serve/session.h"
#include "src/store/store.h"

namespace cqac {
namespace serve {

struct ServiceOptions {
  /// Deadline applied when a request carries no timeout_ms.
  std::chrono::milliseconds default_timeout{2000};
  /// Upper clamp for client-supplied timeout_ms.
  std::chrono::milliseconds max_timeout{30000};
  /// Per-shard session cap (sessions are pinned, so each shard enforces
  /// its own bound).
  size_t max_sessions = 256;
};

/// A point-in-time summary of one shard, safe to take from any thread.
/// The transport adds the queue fields; Service::Summary fills the rest.
/// The rendered `queue_depth_peak` and `rejected_overloaded` are the engine
/// counters serve_queue_peak and serve_overload_rejections.
/// Source of the `stats` op's global scope and of bench_serve's per-shard
/// counters.
struct ShardSummary {
  size_t shard = 0;
  uint64_t requests = 0;
  uint64_t request_errors = 0;
  size_t sessions = 0;
  /// Per-session (name, requests, errors) triples, in name order.
  std::vector<SessionIndexEntry> session_index;
  uint64_t cache_bytes = 0;
  uint64_t cache_entries = 0;
  size_t threads = 0;
  StatsSnapshot engine;
  // Transport-level queue counters (filled by Server).
  size_t queue_depth = 0;
  uint64_t enqueued = 0;

  /// Renders the summary as one JSON object (the element shape of the
  /// `stats` op's "shard_stats" array).
  std::string ToJson() const;
};

class Service {
 public:
  /// `ctx` is the shard's engine context (not owned; outlives the
  /// service).
  Service(EngineContext& ctx, ServiceOptions options);

  /// Identifies this service's shard within a sharded server (default:
  /// shard 0 of 1, the standalone/test configuration). Surfaced in
  /// session-scope `stats` responses as the "shard" wire field.
  void set_shard(size_t index, size_t total) {
    shard_index_ = index;
    shard_total_ = total;
  }
  size_t shard_index() const { return shard_index_; }
  size_t shard_total() const { return shard_total_; }

  /// Installs this shard's durable store (not owned; outlives the
  /// service). Once set, every state-changing commit (session create/drop,
  /// view, fact, retract) appends a WAL record from the engine thread
  /// BEFORE the response is released — acked means logged — and the
  /// snapshot cadence runs after each request. Unset (no --data-dir), the
  /// server is in-memory only, exactly as before.
  void set_store(store::ShardStore* s) { store_ = s; }
  store::ShardStore* store() const { return store_; }

  /// Installs the cross-shard view for the global `stats` scope: a
  /// callback returning every shard's summary (including this one's).
  /// Owning on purpose — the server hands in a lambda over itself. Unset,
  /// global stats reports this service alone — the standalone behaviour.
  void set_cluster_view(std::function<std::vector<ShardSummary>()> view) {
    cluster_view_ = std::move(view);
  }

  /// Executes one request line end to end: JSON parse, envelope
  /// validation, then ExecuteParsed. Always returns a complete
  /// single-line response (errors included).
  std::string Execute(const std::string& line, bool* shutdown_requested);

  /// Executes an already-parsed request: deadline setup, op dispatch,
  /// session accounting. The sharded server parses in stage 1 (reader
  /// threads) and calls this from the shard engine thread.
  /// `*shutdown_requested` is set when the request was a valid `shutdown`
  /// op; the transport reacts after writing the response.
  std::string ExecuteParsed(const Request& req, bool* shutdown_requested);

  /// This shard's summary (queue fields left zero; the transport owns
  /// them). Safe from any thread.
  ShardSummary Summary() const;

  EngineContext& context() { return ctx_; }
  SessionManager& sessions() { return sessions_; }

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t request_errors() const {
    return request_errors_.load(std::memory_order_relaxed);
  }
  /// Counts a request that failed before reaching any shard (parse or
  /// envelope error in the transport's stage 1). Keeps the global
  /// request/request_errors totals exact under pipelined parsing.
  void CountPreparseError() {
    requests_.fetch_add(1, std::memory_order_relaxed);
    request_errors_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  /// Dispatches a validated request. Returns the response line.
  std::string Dispatch(const Request& req, bool* shutdown_requested);

  /// The request's session, created (and the creation logged) on first
  /// use.
  Result<Session*> OpenSession(const Request& req);
  /// Logs one state-changing record. OK when no store is attached.
  Status LogRecordOp(store::RecordType type, const std::string& session,
                     const std::string& text);
  /// Runs the snapshot cadence: writes a compact snapshot of every session
  /// on this shard when enough records accumulated. Failures are advisory
  /// (stderr) — the WAL still holds every commit.
  void MaybeSnapshot();

  std::string HandlePing(const Request& req);
  /// `view`, `fact` and `retract`: SessionState::Apply, then the log.
  std::string HandleApply(const Request& req, store::RecordType type);
  std::string HandleClassify(const Request& req);
  std::string HandleRewrite(const Request& req);
  std::string HandleContain(const Request& req);
  std::string HandleEval(const Request& req);
  std::string HandleAnswers(const Request& req);
  std::string HandleLint(const Request& req);
  std::string HandleStats(const Request& req);
  std::string HandleReset(const Request& req);

  EngineContext& ctx_;
  ServiceOptions options_;
  SessionManager sessions_;
  store::ShardStore* store_ = nullptr;  // not owned; may be null
  size_t shard_index_ = 0;
  size_t shard_total_ = 1;
  std::function<std::vector<ShardSummary>()> cluster_view_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> request_errors_{0};
};

}  // namespace serve
}  // namespace cqac

#endif  // CQAC_SERVE_SERVICE_H_
