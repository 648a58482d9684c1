// The cqac_serve transport: a long-lived TCP server speaking the
// newline-delimited JSON protocol (protocol.h) on 127.0.0.1, sharded into
// N independent engine workers.
//
// Architecture (one process; the request path is a two-stage pipeline):
//
//   accept thread ──► one reader thread per connection
//                          │  stage 1 — parse: splits bytes into request
//                          │  lines, enforces the byte cap, parses JSON +
//                          │  the envelope, stamps a per-connection
//                          │  sequence number,
//                          ▼
//              route by shard = Hash(session) % N      (stable pinning)
//                          │
//            ┌─────────────┼─────────────┐
//            ▼             ▼             ▼
//      shard 0 queue  shard 1 queue  ...  (bounded; full ⇒ "overloaded"
//            │             │              for THAT shard only)
//            ▼             ▼
//      shard engine   shard engine        stage 2 — execute and respond:
//        thread         thread            classify → plan → rewrite/eval
//                                         against the shard-private
//                                         EngineContext + session table
//                                         (engine work fans out across the
//                                         shard's TaskPool), then release
//                                         the response through the
//                                         connection's sequencer, which
//                                         restores arrival order and writes
//                                         on the socket
//
// Why this shape:
//   * Sessions are PINNED to shards by a stable hash of the session name,
//     so all state a request can touch (views, facts, materialized views,
//     session stats) is owned by exactly one shard — the hot path takes no
//     cross-shard locks, and one slow SI-MCR rewrite stalls only the
//     sessions that share its shard.
//   * Within a shard, requests execute strictly in arrival order on the
//     shard's single engine thread. That is what keeps the shard-private
//     EngineContext safe (one driver thread, TaskPool workers beneath it —
//     see src/engine/context.h) and serve output reproducible: every
//     session's response stream is byte-identical to a serial replay of
//     that session's requests, at every shard count and thread count.
//   * One thread handles a request from dequeue to write, so a response
//     crosses no further queue. A client that stops reading stalls its
//     shard once its socket buffer fills, but only for kSendTimeout per
//     response: a write that cannot finish in that time closes the
//     connection.
//   * Responses to one connection are written in request order even when
//     the connection talks to sessions on different shards: every request
//     line gets a per-connection sequence number at parse time, and a
//     per-connection sequencer holds out-of-order responses until the gap
//     closes.
//
// Robustness:
//   * per-request deadlines (service.h) bound every engine call;
//   * a client disconnect cancels its in-flight request on every shard
//     cooperatively (EngineContext::RequestCancel), so an abandoned
//     expensive request stops burning that shard's engine thread;
//   * backpressure is per shard: a full shard queue answers "overloaded"
//     without touching the other shards;
//   * RequestDrain() — from SIGTERM or the `shutdown` op — stops accepting
//     connections, lets every shard answer and write its queued requests,
//     then stops; Wait() returns when the last shard drains.
#ifndef CQAC_SERVE_SERVER_H_
#define CQAC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/task_pool.h"
#include "src/engine/context.h"
#include "src/serve/service.h"

namespace cqac {
namespace serve {

/// The stable session→shard pinning function: FNV-1a over the session
/// name, reduced mod `shards`. Exposed so tests (and capacity planning)
/// can predict placement; changing it invalidates every pinning claim in
/// docs/serve.md.
size_t ShardForSession(const std::string& session, size_t shards);

/// How long one response write may wait on a client that has stopped
/// reading. A write still unfinished this long after the socket first had
/// no room closes the connection like a disconnect: its in-flight request
/// is cancelled, its later responses are dropped and its sequence keeps
/// advancing, so the shard, and a drain, move on.
inline constexpr std::chrono::seconds kSendTimeout{2};

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port() after Start).
  uint16_t port = 0;
  /// Hard cap on one request line; longer lines answer "too_large" and
  /// close the connection.
  size_t max_request_bytes = 1 << 20;
  /// Bounded per-shard request queue depth; a full queue answers
  /// "overloaded" for that shard without affecting the others.
  size_t max_queue = 256;
  /// Number of engine shards. Each shard owns an EngineContext, a session
  /// table and an engine thread; sessions are pinned by ShardForSession.
  size_t shards = 1;
  /// TaskPool workers per shard for intra-request fan-out (0 = serial).
  /// Each shard owns its pool: a TaskPool has a single caller slot, so
  /// independent shard engine threads each need their own.
  size_t threads_per_shard = 0;
  ServiceOptions service;
  /// When non-empty, sessions are durable: every shard logs its commits to
  /// `<data_dir>/shard-<i>` and writes compact snapshots, and startup
  /// recovers all shards before serving (src/store). Empty = in-memory
  /// only, the historical behaviour.
  std::string data_dir;
  store::StoreOptions store;
};

/// What startup recovery did, for the `cqac_serve` banner.
struct RecoverySummary {
  size_t sessions = 0;
  uint64_t replayed_records = 0;
  uint64_t snapshot_lsn_max = 0;
  bool any_tail_truncated = false;

  std::string ToString() const;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the durable store (when options.data_dir is set): pins the
  /// shard count in the data dir's MANIFEST, recovers every shard in
  /// parallel — newest snapshot plus O(delta) WAL-tail replay, sessions
  /// re-adopted on the shard the same FNV-1a pinning assigns them — and
  /// attaches each shard's store to its service. Idempotent; Start() calls
  /// it when the caller did not. No-op without a data_dir.
  Status OpenStore(RecoverySummary* summary = nullptr);

  /// Binds, listens, and spawns the accept and shard engine threads.
  Status Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Number of engine shards.
  size_t shards() const { return shards_.size(); }

  /// Initiates graceful drain: stop accepting, reject new request lines
  /// with "shutting_down", let every shard answer and write its queued
  /// requests, stop. Idempotent, non-blocking, safe from any
  /// thread (a shard engine thread calls it for the `shutdown` op; the
  /// signal watcher calls it for SIGTERM).
  void RequestDrain();

  /// Blocks until the drain completes (every shard's queued requests
  /// answered and written).
  void Wait();

  /// RequestDrain + Wait + join all threads and close every socket. Called
  /// by the destructor if needed.
  void Stop();

  /// Shard 0's engine context / service (the whole server's when
  /// shards == 1). Benches and tests use these; multi-shard callers want
  /// ShardSummaries().
  EngineContext& context() { return shards_[0]->ctx; }
  Service& service() { return *shards_[0]->service; }

  /// Engine context / service of one specific shard.
  EngineContext& shard_context(size_t i) { return shards_[i]->ctx; }
  Service& shard_service(size_t i) { return *shards_[i]->service; }

  /// Point-in-time per-shard summaries (see service.h). Safe from any
  /// thread; also the source of the `stats` op's global scope.
  std::vector<ShardSummary> ShardSummaries() const;

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::thread reader;
    std::atomic<bool> closed{false};
    std::atomic<bool> reader_done{false};

    // Request lines are stamped 0,1,2,… by the reader (stage 1); the
    // sequencer releases responses in exactly that order. order_mu also
    // serializes every send on fd and its close.
    uint64_t next_request_seq = 0;  // reader thread only
    std::mutex order_mu;
    uint64_t next_write_seq = 0;
    std::map<uint64_t, std::string> held_responses;
  };

  struct QueueItem {
    std::shared_ptr<Connection> conn;
    uint64_t seq = 0;
    Request request;
  };

  /// One engine shard: private context + session table + request queue.
  struct Shard {
    size_t index = 0;
    EngineContext ctx;
    std::unique_ptr<TaskPool> owned_pool;  // null when serial
    std::unique_ptr<Service> service;

    std::mutex queue_mu;
    std::condition_variable queue_cv;
    std::deque<QueueItem> queue;

    std::thread engine_thread;

    std::atomic<uint64_t> executing_conn_id{0};

    // Requests admitted to the queue, surfaced via ShardSummaries. The
    // overload rejections and the queue-depth peak are the context's
    // serve_overload_rejections and serve_queue_peak counters.
    std::atomic<uint64_t> enqueued{0};
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void EngineLoop(Shard& shard);

  /// Routes one parsed request to its session's shard; answers
  /// "overloaded" via the sequencer when that shard's queue is full.
  void EnqueueRequest(const std::shared_ptr<Connection>& conn, uint64_t seq,
                      Request request);

  /// Releases `line` as response `seq` of `conn`, writing it (and any
  /// directly following held responses) once every earlier response has
  /// been written. Always advances the sequence, even when
  /// the connection is already closed, so later responses never stall.
  void WriteSequenced(Connection& conn, uint64_t seq, std::string line);

  /// Sends `line` on `conn` unless it is already closed. A write error, or
  /// a write that waited kSendTimeout for room, marks it closed and shuts
  /// the socket down, so the reader sees EOF. Caller holds conn.order_mu.
  void WriteLine(Connection& conn, const std::string& line);

  /// Joins reader threads of connections whose readers have exited.
  void ReapFinishedConnections();

  ServerOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-shard durable stores, parallel to shards_ (empty without a
  /// data_dir). Owned here; each shard's Service holds a raw pointer.
  std::vector<std::unique_ptr<store::ShardStore>> stores_;
  bool store_opened_ = false;

  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;

  std::atomic<bool> draining_{false};

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  size_t shards_done_ = 0;
  bool stopped_ = false;
};

}  // namespace serve
}  // namespace cqac

#endif  // CQAC_SERVE_SERVER_H_
