// The per-shard durable store: one write-ahead log plus compact snapshots
// per serve shard, with O(delta) crash recovery.
//
// Directory layout under --data-dir:
//
//   <data-dir>/MANIFEST            "CQACDIR1 shards=N" — shard count pin;
//                                  reopening with a different --shards is a
//                                  hard error (session-to-shard pinning is
//                                  FNV-1a(name) % shards, so resharding
//                                  would silently strand logged sessions).
//   <data-dir>/shard-<i>/wal       append-only record log (src/store/log.h)
//   <data-dir>/shard-<i>/snap-<lsn>.cqs
//                                  compact snapshots (src/store/snapshot.h),
//                                  zero-padded so lexical order = LSN order.
//
// Durability contract: ShardStore::Append runs on the shard's engine thread
// inside the request handler, BEFORE the response is written — so under `--fsync always` an acknowledged commit is on disk. Snapshot
// writes compact the WAL down to a single kSnapshotBarrier record, so
// recovery replays only the tail since the last snapshot through the live
// path's own SessionState::Apply (O(delta) IVM maintenance) — never a
// rematerialization.
//
// Fail-stop: the first append error latches failed() and every later append
// refuses. The shard keeps serving reads from memory but stops
// acknowledging writes it cannot make durable.
#ifndef CQAC_STORE_STORE_H_
#define CQAC_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/engine/context.h"
#include "src/store/log.h"
#include "src/store/snapshot.h"

namespace cqac {
namespace store {

struct StoreOptions {
  FsyncPolicy fsync = FsyncPolicy::kInterval;

  /// Write a snapshot (and compact the WAL) after this many state-changing
  /// records have accumulated since the last one. 0 disables automatic
  /// snapshots (the WAL grows until a manual compact).
  uint64_t snapshot_every = 4096;
};

/// Snapshots retained after a successful compaction.
inline constexpr size_t kKeepSnapshots = 2;

/// The largest shard count a data dir can pin; InitDataDir refuses more,
/// so every MANIFEST it writes reads back.
inline constexpr uint32_t kMaxShards = 4096;

/// `<data_dir>/shard-<index>`.
std::string ShardDirPath(const std::string& data_dir, uint32_t shard_index);

/// Creates `data_dir` if needed and pins `shard_count` (1..kMaxShards) in
/// its MANIFEST. When a MANIFEST already exists, the pinned count must
/// match.
Status InitDataDir(const std::string& data_dir, uint32_t shard_count);

/// Reads the shard count pinned by an existing MANIFEST.
Result<uint32_t> ManifestShards(const std::string& data_dir);

/// Snapshot files in `shard_dir`, ascending by covered LSN.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& shard_dir);

/// What RecoverShard rebuilt from one shard directory.
struct RecoveredShard {
  /// Name-ordered, fully rebuilt sessions (snapshot state + replayed tail).
  std::vector<std::unique_ptr<SessionState>> sessions;
  bool has_adaptive = false;
  AdaptiveState adaptive;
  uint64_t snapshot_lsn = 0;       ///< 0 when no snapshot existed
  uint64_t last_lsn = 0;           ///< highest LSN seen (snapshot or log)
  uint64_t replayed_records = 0;   ///< non-barrier tail records applied
  bool wal_tail_truncated = false; ///< a torn frame was dropped (crash sign)
};

/// Recovers one shard: loads the newest valid snapshot (if any), restores
/// the adaptive calibration into `ctx` BEFORE replay (so every replayed
/// apply makes the same incremental-vs-rebuild decision the crashed process
/// made), then replays the WAL tail (records with lsn > snapshot lsn)
/// through SessionState::Apply, the transition the live server ran before
/// it logged each record. A missing shard directory or an empty one
/// recovers to the empty state. Bumps
/// store_recovery_replayed_records per applied record and
/// store_recovery_sessions once per rebuilt session.
Result<RecoveredShard> RecoverShard(EngineContext& ctx,
                                    const std::string& shard_dir);

/// The live per-shard store handle: owns the WAL appender and the snapshot
/// cadence. Single-writer: only the shard's engine thread calls Append /
/// WriteSnapshot.
class ShardStore {
 public:
  /// Opens (creating if needed) `<data_dir>/shard-<shard_index>`. The WAL is
  /// opened for appending with torn tails truncated; LSN assignment resumes
  /// after the highest LSN on disk (log or snapshot). `ctx` may be null
  /// (offline tools); when set, store_* counters are maintained on it.
  static Result<std::unique_ptr<ShardStore>> Open(const std::string& data_dir,
                                                  uint32_t shard_index,
                                                  uint32_t shard_count,
                                                  const StoreOptions& options,
                                                  EngineContext* ctx);

  /// Appends one state-changing record (assigns the next LSN) and applies
  /// the fsync policy. Fail-stop: after the first error every call returns
  /// that error without touching the file.
  Status Append(RecordType type, const std::string& session,
                const std::string& text);

  /// True once an append has failed; the store no longer accepts writes.
  bool failed() const { return !failure_.ok(); }
  const Status& failure() const { return failure_; }

  /// True when snapshot_every state-changing records accumulated since the
  /// last snapshot (or since open, counting the recovered tail).
  bool ShouldSnapshot() const;

  /// Writes the snapshot covering every record appended so far, compacts
  /// the WAL down to a single barrier record, and prunes old snapshots.
  /// On failure the WAL is untouched — the store stays usable and the next
  /// cadence check will retry.
  Status WriteSnapshot(const AdaptiveState& adaptive,
                       const std::vector<SessionSnapshotRef>& sessions);

  uint64_t last_lsn() const { return last_lsn_; }
  const std::string& dir() const { return dir_; }
  const StoreOptions& options() const { return options_; }

  /// Forces an fsync of the WAL regardless of policy.
  Status Sync();

 private:
  ShardStore(std::string dir, uint32_t shard_index, uint32_t shard_count,
             StoreOptions options, EngineContext* ctx)
      : dir_(std::move(dir)),
        shard_index_(shard_index),
        shard_count_(shard_count),
        options_(options),
        ctx_(ctx) {}

  /// Folds the WAL writer's fsync counter delta into the context stats.
  void SyncStatsFromWriter();

  std::string dir_;
  uint32_t shard_index_;
  uint32_t shard_count_;
  StoreOptions options_;
  EngineContext* ctx_;  // not owned; may be null

  std::unique_ptr<LogWriter> wal_;
  uint64_t last_lsn_ = 0;
  uint64_t appends_since_snapshot_ = 0;
  uint64_t seen_fsyncs_ = 0;
  Status failure_ = Status::OK();
};

}  // namespace store
}  // namespace cqac

#endif  // CQAC_STORE_STORE_H_
