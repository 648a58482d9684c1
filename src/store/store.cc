#include "src/store/store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/base/strings.h"

namespace cqac {
namespace store {

namespace {

constexpr char kManifestMagic[] = "CQACDIR1";
constexpr char kWalFileName[] = "wal";
constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".cqs";

std::string Errno() { return std::strerror(errno); }

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal(StrCat("mkdir ", path, ": ", Errno()));
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string WalPath(const std::string& shard_dir) {
  return StrCat(shard_dir, "/", kWalFileName);
}

std::string SnapshotPath(const std::string& shard_dir, uint64_t lsn) {
  // Zero-padded so lexical order equals LSN order in directory listings.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(lsn));
  return StrCat(shard_dir, "/", kSnapshotPrefix, buf, kSnapshotSuffix);
}

/// Applies one replayed WAL record to the in-recovery session map, using the
/// same lenient get-or-create semantics the serve layer logs under, and the
/// live SessionState::Apply for every state change.
Status ReplayRecord(EngineContext& ctx, const LogRecord& r,
                    std::map<std::string, std::unique_ptr<SessionState>>* by_name) {
  if (r.type == RecordType::kSnapshotBarrier)
    return Status::OK();  // validated by the caller against the snapshot
  if (r.type == RecordType::kSessionDrop) {
    by_name->erase(r.session);
    return Status::OK();
  }
  std::unique_ptr<SessionState>& s = (*by_name)[r.session];
  if (s == nullptr) {
    s = std::make_unique<SessionState>();
    s->name = r.session;
  }
  if (r.type == RecordType::kSessionCreate) return Status::OK();
  Result<ivm::ApplySummary> applied = s->Apply(ctx, r.type, r.text);
  if (!applied.ok())
    return Status::Inconsistent(StrCat("wal replay: ", RecordTypeName(r.type),
                                       " record lsn ", r.lsn, " failed: ",
                                       applied.status().message()));
  return Status::OK();
}

}  // namespace

std::string ShardDirPath(const std::string& data_dir, uint32_t shard_index) {
  return StrCat(data_dir, "/shard-", shard_index);
}

Status InitDataDir(const std::string& data_dir, uint32_t shard_count) {
  if (shard_count == 0 || shard_count > kMaxShards)
    return Status::InvalidArgument(StrCat("shard count ", shard_count,
                                          " is outside 1..", kMaxShards));
  CQAC_RETURN_IF_ERROR(EnsureDir(data_dir));
  std::string manifest = StrCat(data_dir, "/MANIFEST");
  if (FileExists(manifest)) {
    Result<uint32_t> pinned = ManifestShards(data_dir);
    CQAC_RETURN_IF_ERROR(pinned.status());
    if (pinned.value() != shard_count)
      return Status::InvalidArgument(StrCat(
          "data dir ", data_dir, " was created with --shards ", pinned.value(),
          " but reopened with --shards ", shard_count,
          "; sessions are pinned to shards by name hash, so the count "
          "cannot change"));
    return Status::OK();
  }
  std::string tmp = manifest + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << kManifestMagic << " shards=" << shard_count << "\n";
    if (!out) return Status::Internal(StrCat("write ", tmp, " failed"));
  }
  if (std::rename(tmp.c_str(), manifest.c_str()) != 0)
    return Status::Internal(StrCat("rename ", tmp, ": ", Errno()));
  return Status::OK();
}

Result<uint32_t> ManifestShards(const std::string& data_dir) {
  std::string manifest = StrCat(data_dir, "/MANIFEST");
  std::ifstream in(manifest, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("no MANIFEST in ", data_dir));
  std::string magic, shards;
  in >> magic >> shards;
  if (magic != kManifestMagic || shards.rfind("shards=", 0) != 0)
    return Status::Inconsistent(StrCat("malformed MANIFEST in ", data_dir));
  errno = 0;
  char* end = nullptr;
  unsigned long n = std::strtoul(shards.c_str() + 7, &end, 10);
  if (errno != 0 || end == shards.c_str() + 7 || *end != '\0' || n == 0 ||
      n > kMaxShards)
    return Status::Inconsistent(StrCat("malformed MANIFEST in ", data_dir));
  return static_cast<uint32_t>(n);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& shard_dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  DIR* dir = ::opendir(shard_dir.c_str());
  if (dir == nullptr) {
    if (errno == ENOENT) return out;
    return Status::Internal(StrCat("opendir ", shard_dir, ": ", Errno()));
  }
  while (struct dirent* e = ::readdir(dir)) {
    std::string name = e->d_name;
    if (name.rfind(kSnapshotPrefix, 0) != 0) continue;
    size_t suffix_at = name.size() - (sizeof(kSnapshotSuffix) - 1);
    if (name.size() <= sizeof(kSnapshotPrefix) - 1 + 4 ||
        name.compare(suffix_at, std::string::npos, kSnapshotSuffix) != 0)
      continue;
    std::string digits = name.substr(sizeof(kSnapshotPrefix) - 1,
                                     suffix_at - (sizeof(kSnapshotPrefix) - 1));
    errno = 0;
    char* end = nullptr;
    unsigned long long lsn = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || end != digits.c_str() + digits.size()) continue;
    out.emplace_back(static_cast<uint64_t>(lsn), StrCat(shard_dir, "/", name));
  }
  ::closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

Result<RecoveredShard> RecoverShard(EngineContext& ctx,
                                    const std::string& shard_dir) {
  RecoveredShard out;
  struct stat st;
  if (::stat(shard_dir.c_str(), &st) != 0) return out;  // fresh shard

  Result<std::vector<std::pair<uint64_t, std::string>>> snaps =
      ListSnapshots(shard_dir);
  CQAC_RETURN_IF_ERROR(snaps.status());

  std::map<std::string, std::unique_ptr<SessionState>> by_name;
  if (!snaps.value().empty()) {
    const auto& [lsn, path] = snaps.value().back();
    Result<SnapshotData> snap = ReadSnapshotFile(path);
    CQAC_RETURN_IF_ERROR(snap.status());
    if (snap.value().lsn != lsn)
      return Status::Inconsistent(StrCat("snapshot ", path,
                                         " claims lsn ", snap.value().lsn,
                                         " but is named for lsn ", lsn));
    out.snapshot_lsn = lsn;
    out.last_lsn = lsn;
    for (auto& s : std::move(snap).value().sessions) by_name.emplace(s->name, std::move(s));
  }

  std::string wal = WalPath(shard_dir);
  if (FileExists(wal)) {
    Result<LogContents> log = ReadLog(wal);
    CQAC_RETURN_IF_ERROR(log.status());
    out.wal_tail_truncated = log.value().truncated_tail;
    for (const LogRecord& r : log.value().records) {
      out.last_lsn = std::max(out.last_lsn, r.lsn);
      if (r.type == RecordType::kSnapshotBarrier) {
        if (r.barrier_lsn > out.snapshot_lsn)
          return Status::Inconsistent(StrCat(
              "wal ", wal, " barrier references snapshot lsn ", r.barrier_lsn,
              " but the newest snapshot covers lsn ", out.snapshot_lsn,
              " (snapshot file missing or corrupt)"));
        continue;
      }
      if (r.lsn <= out.snapshot_lsn) continue;  // already in the snapshot
      CQAC_RETURN_IF_ERROR(ReplayRecord(ctx, r, &by_name));
      out.replayed_records += 1;
      ctx.stats().store_recovery_replayed_records += 1;
    }
  }

  out.sessions.reserve(by_name.size());
  for (auto& [name, s] : by_name) out.sessions.push_back(std::move(s));
  ctx.stats().store_recovery_sessions += out.sessions.size();
  return out;
}

Result<std::unique_ptr<ShardStore>> ShardStore::Open(
    const std::string& data_dir, uint32_t shard_index, uint32_t shard_count,
    const StoreOptions& options, EngineContext* ctx) {
  std::string dir = ShardDirPath(data_dir, shard_index);
  CQAC_RETURN_IF_ERROR(EnsureDir(dir));

  std::unique_ptr<ShardStore> store(
      new ShardStore(dir, shard_index, shard_count, options, ctx));

  Result<std::vector<std::pair<uint64_t, std::string>>> snaps =
      ListSnapshots(dir);
  CQAC_RETURN_IF_ERROR(snaps.status());
  uint64_t last = snaps.value().empty() ? 0 : snaps.value().back().first;

  LogWriter::Options wal_options;
  wal_options.fsync = options.fsync;
  LogContents recovered;
  Result<std::unique_ptr<LogWriter>> wal = LogWriter::Open(
      WalPath(dir), shard_index, shard_count, wal_options, &recovered);
  CQAC_RETURN_IF_ERROR(wal.status());
  store->wal_ = std::move(wal).value();
  store->seen_fsyncs_ = store->wal_->fsyncs();

  for (const LogRecord& r : recovered.records) {
    last = std::max(last, r.lsn);
    if (r.type != RecordType::kSnapshotBarrier)
      store->appends_since_snapshot_ += 1;
  }
  store->last_lsn_ = last;
  return store;
}

void ShardStore::SyncStatsFromWriter() {
  if (ctx_ == nullptr || wal_ == nullptr) return;
  uint64_t now = wal_->fsyncs();
  if (now > seen_fsyncs_) ctx_->stats().store_fsyncs += now - seen_fsyncs_;
  seen_fsyncs_ = now;
}

Status ShardStore::Append(RecordType type, const std::string& session,
                          const std::string& text) {
  if (!failure_.ok())
    return Status::Internal(
        StrCat("durable store failed earlier: ", failure_.message()));
  LogRecord r;
  r.lsn = last_lsn_ + 1;
  r.type = type;
  r.session = session;
  r.text = text;
  Result<size_t> appended = wal_->Append(r);
  if (!appended.ok()) {
    failure_ = appended.status();
    return appended.status();
  }
  last_lsn_ = r.lsn;
  appends_since_snapshot_ += 1;
  if (ctx_ != nullptr) {
    ctx_->stats().store_records_appended += 1;
    ctx_->stats().store_bytes_logged += appended.value();
  }
  SyncStatsFromWriter();
  return Status::OK();
}

bool ShardStore::ShouldSnapshot() const {
  return failure_.ok() && options_.snapshot_every > 0 &&
         appends_since_snapshot_ >= options_.snapshot_every;
}

Status ShardStore::WriteSnapshot(
    const AdaptiveState& /*unused*/,
    const std::vector<SessionSnapshotRef>& sessions) {
  if (!failure_.ok())
    return Status::Internal(
        StrCat("durable store failed earlier: ", failure_.message()));
  // A shard that never logged a record has nothing to snapshot, and a
  // barrier at LSN 0 would violate the log's strictly-positive LSN
  // invariant — no-op rather than corrupt the WAL.
  if (last_lsn_ == 0) return Status::OK();
  uint64_t lsn = last_lsn_;
  std::string snap_path = SnapshotPath(dir_, lsn);
  CQAC_RETURN_IF_ERROR(WriteSnapshotFile(snap_path, lsn, sessions));

  // Compact the WAL down to a single barrier record, atomically: build the
  // replacement under a tmp name, fsync it, close our current appender,
  // rename over, and reopen. A crash between rename and reopen leaves a
  // valid barrier-only WAL.
  std::string tmp = WalPath(dir_) + ".tmp";
  {
    LogWriter::Options wal_options;
    wal_options.fsync = FsyncPolicy::kNever;  // explicit Sync below
    Result<std::unique_ptr<LogWriter>> fresh = LogWriter::Open(
        tmp, shard_index_, shard_count_, wal_options, nullptr);
    CQAC_RETURN_IF_ERROR(fresh.status());
    LogRecord barrier;
    barrier.lsn = lsn;
    barrier.type = RecordType::kSnapshotBarrier;
    barrier.barrier_lsn = lsn;
    Result<size_t> appended = fresh.value()->Append(barrier);
    CQAC_RETURN_IF_ERROR(appended.status());
    CQAC_RETURN_IF_ERROR(fresh.value()->Sync());
  }
  SyncStatsFromWriter();
  wal_.reset();  // close the old fd before replacing the file
  if (std::rename(tmp.c_str(), WalPath(dir_).c_str()) != 0) {
    failure_ = Status::Internal(
        StrCat("rename ", tmp, " over wal: ", Errno()));
    return failure_;
  }
  LogWriter::Options wal_options;
  wal_options.fsync = options_.fsync;
  Result<std::unique_ptr<LogWriter>> reopened = LogWriter::Open(
      WalPath(dir_), shard_index_, shard_count_, wal_options, nullptr);
  if (!reopened.ok()) {
    failure_ = reopened.status();
    return failure_;
  }
  wal_ = std::move(reopened).value();
  seen_fsyncs_ = wal_->fsyncs();
  appends_since_snapshot_ = 0;
  if (ctx_ != nullptr) ctx_->stats().store_snapshots_written += 1;

  // Prune old snapshots (best-effort; stale files only waste space).
  Result<std::vector<std::pair<uint64_t, std::string>>> snaps =
      ListSnapshots(dir_);
  if (snaps.ok() && snaps.value().size() > kKeepSnapshots) {
    size_t drop = snaps.value().size() - kKeepSnapshots;
    for (size_t i = 0; i < drop; ++i)
      ::unlink(snaps.value()[i].second.c_str());
  }
  return Status::OK();
}

Status ShardStore::Sync() {
  if (!failure_.ok())
    return Status::Internal(
        StrCat("durable store failed earlier: ", failure_.message()));
  Status st = wal_->Sync();
  SyncStatsFromWriter();
  return st;
}

}  // namespace store
}  // namespace cqac
