// Compact snapshots: one file serializing a shard's full semantic state —
// every session's view registry (original rule texts), base database,
// materialized views WITH their IVM derivation counts and planner sketches,
// plus the shard context's adaptive calibration state.
//
// File layout (docs/durability.md):
//
//   [8B magic "CQACSNP1"][u32 version][u64 lsn]
//   frame*     each frame is [u32 len][u32 crc32c][payload] (record.h),
//              payload = u8 section kind + body:
//                kAdaptive (1): AdaptiveState blob (engine/adaptive.h)
//                kSession  (2): one session's state
//                kEnd      (3): empty — guards against silent truncation
//
// Why this exact state set: recovery must leave the process byte-equivalent
// to the one that crashed. Base + views + counts make retract semantics
// exact; the planner sketches are insert-monotone (they remember retracted
// tuples), so they are serialized rather than rebuilt from live tuples; the
// adaptive calibration state makes post-recovery plan choices — including
// each replayed apply's incremental-vs-rebuild decision — match the
// decisions the crashed process would have made. The interner and decision
// cache are deliberately NOT snapshotted: they are semantically transparent
// (cold caches re-warm; results are byte-identical either way).
//
// Crash safety: WriteSnapshotFile writes to `path + ".tmp"`, fsyncs, then
// renames — a crash mid-write leaves the previous snapshot untouched.
//
// The state a snapshot holds per session is SessionState, the one session
// type the shell, the server and recovery share; its Apply is the one
// all-or-nothing state transition they all run.
#ifndef CQAC_STORE_SNAPSHOT_H_
#define CQAC_STORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/engine/adaptive.h"
#include "src/engine/context.h"
#include "src/ir/parser.h"
#include "src/ir/view.h"
#include "src/ivm/maintain.h"
#include "src/store/record.h"

namespace cqac {
namespace store {

inline constexpr char kSnapshotMagic[9] = "CQACSNP1";  // 8 bytes on disk
inline constexpr uint32_t kSnapshotVersion = 1;

/// Borrowed references to one live session's snapshot-relevant state (the
/// serve layer hands these in so writing never copies a session).
struct SessionSnapshotRef {
  const std::string* name = nullptr;
  const std::vector<std::string>* view_texts = nullptr;
  const ivm::MaterializedViewSet* store = nullptr;
};

/// One session's state: what the shell, a serve::Session and recovery all
/// hold, changed only through Apply. Invariant: `views`, `view_sources` and
/// `view_texts` are parallel, and `views` equals store.view_queries() in the
/// same order.
struct SessionState {
  std::string name;
  ViewSet views;
  std::vector<ParsedQuery> view_sources;  // with spans, for lint
  std::vector<std::string> view_texts;    // verbatim rule texts (snapshots)
  /// Base facts plus the incrementally maintained materializations of
  /// `views` (src/ivm).
  ivm::MaterializedViewSet store;

  /// Applies one kView, kFact or kRetract record, all-or-nothing: on any
  /// error — bad text, a duplicate view name, an invalid rule, an exhausted
  /// budget — the state is exactly as before the call. The live server,
  /// WAL replay and the shell all change session state through this, so a
  /// replayed record lands exactly as the live one did. `cert` (fact and
  /// retract only) receives the maintenance certificate. A view record
  /// returns an empty summary.
  Result<ivm::ApplySummary> Apply(EngineContext& ctx, RecordType type,
                                  const std::string& text,
                                  ivm::MaintenanceCertificate* cert = nullptr);
};

struct SnapshotData {
  uint64_t lsn = 0;
  bool has_adaptive = false;
  AdaptiveState adaptive;
  /// Name-ordered (snapshots are written from a name-ordered session map).
  std::vector<std::unique_ptr<SessionState>> sessions;
};

/// Writes the snapshot covering log position `lsn` atomically (tmp + fsync
/// + rename).
Status WriteSnapshotFile(const std::string& path, uint64_t lsn,
                         const AdaptiveState& adaptive,
                         const std::vector<SessionSnapshotRef>& sessions);

/// Loads and fully validates a snapshot file. Any framing, CRC, decode, or
/// cross-section consistency failure is an error — a snapshot referenced by
/// a WAL barrier must load or recovery is impossible.
Result<SnapshotData> ReadSnapshotFile(const std::string& path);

}  // namespace store
}  // namespace cqac

#endif  // CQAC_STORE_SNAPSHOT_H_
