// Sessions: the per-client state a long-lived server keeps between
// requests. A session owns what the shell keeps as mutable state — the
// store::SessionState of view registry, rule texts and maintained fact
// database — plus accounting: request counts and the engine-stat deltas
// attributable to the session's requests against the owning shard's
// EngineContext.
//
// Ownership under sharding: every session is pinned to exactly one shard
// (server.h ShardForSession), and a session's *state* (views, store,
// engine-stat deltas) is touched only by that shard's single engine
// thread — requests are executed serially off the shard's bounded queue,
// so none of it needs locking. What IS read cross-shard is the global
// `stats` scope's session index (names + request/error counts): the
// manager guards its map with a mutex for create/drop/enumerate, and the
// per-session request/error counts are relaxed atomics. The owning shard
// never takes another shard's mutex — the hot path stays shard-local.
#ifndef CQAC_SERVE_SESSION_H_
#define CQAC_SERVE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/stats.h"
#include "src/store/snapshot.h"

namespace cqac {
namespace serve {

/// Accounting for one session. `requests`/`errors` are atomics because the
/// global `stats` scope reads them from another shard's engine thread;
/// `engine` is only ever touched by the owning shard.
struct SessionStats {
  std::atomic<uint64_t> requests{0};  // requests executed (incl. failed)
  std::atomic<uint64_t> errors{0};    // requests answered with an error
  StatsSnapshot engine;  // summed engine-stat deltas of this session
};

/// One client-visible session: the state every front end shares
/// (store::SessionState, changed only through its Apply) plus accounting.
struct Session : store::SessionState {
  explicit Session(std::string name_in) { name = std::move(name_in); }
  /// Adopts a recovered session's state wholesale.
  explicit Session(store::SessionState&& state)
      : store::SessionState(std::move(state)) {}

  SessionStats stats;
};

/// One row of the cross-shard session index (global `stats` scope).
struct SessionIndexEntry {
  std::string name;
  uint64_t requests = 0;
  uint64_t errors = 0;
};

/// Owns every live session of one shard. Bounded: GetOrCreate fails with
/// kResourceExhausted once `max_sessions` distinct names exist (a stray
/// client enumerating session names must not exhaust server memory).
class SessionManager {
 public:
  explicit SessionManager(size_t max_sessions = 256)
      : max_sessions_(max_sessions) {}

  /// The session named `name`, created on first use. Owning shard only.
  /// When `created` is non-null it reports whether this call created the
  /// session (the durable store logs a kSessionCreate record exactly then).
  Result<Session*> GetOrCreate(const std::string& name,
                               bool* created = nullptr);

  /// Adopts a recovered session wholesale (startup recovery, before any
  /// client traffic). Fails on a duplicate name or when full.
  Status Adopt(std::unique_ptr<Session> session);

  /// Name-ordered pointers to every live session. Owning shard's engine
  /// thread only (the durable snapshot writer walks these).
  std::vector<Session*> Sessions() const;

  /// The session named `name`, or nullptr when it was never created.
  /// Owning shard only (the returned state is not cross-shard safe).
  Session* Find(const std::string& name);

  /// Drops the session (views, facts, stats). False when absent. Owning
  /// shard only.
  bool Drop(const std::string& name);

  size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return sessions_.size();
  }

  /// Snapshot of (name, requests, errors) in name order. Safe from any
  /// thread — this is what the global `stats` scope reads cross-shard.
  std::vector<SessionIndexEntry> Index() const;

 private:
  size_t max_sessions_;
  /// Guards the map shape (insert/erase/iterate), not session contents:
  /// a Session's state belongs to the owning shard's engine thread.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
};

}  // namespace serve
}  // namespace cqac

#endif  // CQAC_SERVE_SESSION_H_
