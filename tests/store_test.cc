// Unit tests for src/store: CRC32C, record framing, WAL read/write with
// torn-tail truncation and corruption detection, snapshot round-trips
// (including derivation counts, planner sketches, and adaptive state),
// ShardStore compaction, and O(delta) recovery via RecoverShard.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/engine/context.h"
#include "src/eval/database.h"
#include "src/ir/parser.h"
#include "src/ivm/maintain.h"
#include "src/store/crc32c.h"
#include "src/store/log.h"
#include "src/store/record.h"
#include "src/store/snapshot.h"
#include "src/store/store.h"

namespace cqac {
namespace {

namespace fs = std::filesystem;

/// A unique empty directory, removed (with contents) at scope exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "cqac_store_test_XXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string operator/(const std::string& leaf) const {
    return path_ + "/" + leaf;
  }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Database Db(const std::string& facts) {
  auto r = Database::FromFacts(facts);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ValueOr(Database());
}

Query Parse(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return std::move(q).value();
}

// ---- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The canonical check value for CRC32C (RFC 3720 appendix B.4).
  EXPECT_EQ(store::Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(store::Crc32c("", 0), 0u);
  // 32 zero bytes, another published vector.
  std::string zeros(32, '\0');
  EXPECT_EQ(store::Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::string a = "the quick brown fox";
  uint32_t base = store::Crc32c(a);
  for (size_t i = 0; i < a.size(); ++i) {
    std::string b = a;
    b[i] ^= 0x01;
    EXPECT_NE(store::Crc32c(b), base) << "flip at " << i;
  }
}

// ---- Record encode/decode --------------------------------------------------

TEST(RecordTest, RoundTripsEveryType) {
  const store::RecordType kTypes[] = {
      store::RecordType::kSessionCreate, store::RecordType::kSessionDrop,
      store::RecordType::kView,          store::RecordType::kFact,
      store::RecordType::kRetract,       store::RecordType::kSnapshotBarrier,
  };
  uint64_t lsn = 1;
  for (store::RecordType t : kTypes) {
    store::LogRecord r;
    r.lsn = lsn++;
    r.type = t;
    r.session = "sess-α";  // non-ASCII survives (strings are raw bytes)
    r.text = "v(X) :- r(X, Y), X <= 5";
    r.barrier_lsn = 42;
    std::string payload;
    store::EncodeRecord(r, &payload);
    wire::Cursor c(payload);
    store::LogRecord back;
    ASSERT_TRUE(store::DecodeRecord(&c, &back));
    EXPECT_TRUE(c.AtEnd());
    EXPECT_EQ(back.lsn, r.lsn);
    EXPECT_EQ(back.type, r.type);
    EXPECT_EQ(back.session, r.session);
    EXPECT_EQ(back.text, r.text);
    EXPECT_EQ(back.barrier_lsn, r.barrier_lsn);
  }
}

TEST(RecordTest, RejectsUnknownTypeAndTruncation) {
  store::LogRecord r;
  r.lsn = 7;
  r.type = store::RecordType::kFact;
  r.session = "s";
  r.text = "r(1).";
  std::string payload;
  store::EncodeRecord(r, &payload);

  std::string bad = payload;
  bad[0] = 99;  // no such record type
  wire::Cursor c1(bad);
  store::LogRecord out;
  EXPECT_FALSE(store::DecodeRecord(&c1, &out));

  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::string prefix = payload.substr(0, cut);
    wire::Cursor c2(prefix);
    EXPECT_FALSE(store::DecodeRecord(&c2, &out)) << "cut at " << cut;
  }
}

// ---- WAL -------------------------------------------------------------------

/// Appends `n` fact records (lsn 1..n) through a fresh writer and returns
/// the WAL path.
std::string WriteWal(const TempDir& dir, int n,
                     store::FsyncPolicy fsync = store::FsyncPolicy::kNever) {
  std::string path = dir / "wal";
  store::LogWriter::Options options;
  options.fsync = fsync;
  auto w = store::LogWriter::Open(path, 3, 8, options, nullptr);
  EXPECT_TRUE(w.ok()) << w.status();
  for (int i = 1; i <= n; ++i) {
    store::LogRecord r;
    r.lsn = static_cast<uint64_t>(i);
    r.type = store::RecordType::kFact;
    r.session = "s";
    r.text = "r(" + std::to_string(i) + ").";
    auto appended = w.value()->Append(r);
    EXPECT_TRUE(appended.ok()) << appended.status();
  }
  return path;
}

TEST(LogTest, RoundTripsHeaderAndRecords) {
  TempDir dir;
  std::string path = WriteWal(dir, 3);
  auto log = store::ReadLog(path);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log.value().shard_index, 3u);
  EXPECT_EQ(log.value().shard_count, 8u);
  EXPECT_FALSE(log.value().truncated_tail);
  ASSERT_EQ(log.value().records.size(), 3u);
  EXPECT_EQ(log.value().records[0].lsn, 1u);
  EXPECT_EQ(log.value().records[2].text, "r(3).");
}

TEST(LogTest, ReopenResumesAppendingAndReportsContents) {
  TempDir dir;
  std::string path = WriteWal(dir, 2);
  store::LogContents recovered;
  auto w = store::LogWriter::Open(path, 3, 8, {}, &recovered);
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(recovered.records.size(), 2u);
  store::LogRecord r;
  r.lsn = 3;
  r.type = store::RecordType::kRetract;
  r.session = "s";
  r.text = "r(1).";
  ASSERT_TRUE(w.value()->Append(r).ok());
  w.value().reset();

  auto log = store::ReadLog(path);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log.value().records.size(), 3u);
  EXPECT_EQ(log.value().records[2].type, store::RecordType::kRetract);
}

TEST(LogTest, RejectsShardIdentityMismatchOnReopen) {
  TempDir dir;
  std::string path = WriteWal(dir, 1);
  auto w = store::LogWriter::Open(path, 4, 8, {}, nullptr);
  EXPECT_FALSE(w.ok());
}

TEST(LogTest, TruncatesTornTailAtEveryByteOfTheLastFrame) {
  TempDir dir;
  std::string path = WriteWal(dir, 3);
  std::string full = ReadFile(path);
  auto intact = store::ReadLog(path);
  ASSERT_TRUE(intact.ok());
  uint64_t two_records_end = 0;
  {
    // Find the end of frame 2 by rewriting 2 records and measuring.
    TempDir dir2;
    std::string p2 = WriteWal(dir2, 2);
    two_records_end = ReadFile(p2).size();
  }
  // Every cut strictly inside the last frame loses exactly that frame.
  for (size_t cut = two_records_end + 1; cut < full.size(); ++cut) {
    std::string torn_path = dir / ("torn" + std::to_string(cut));
    WriteFile(torn_path, full.substr(0, cut));
    auto log = store::ReadLog(torn_path);
    ASSERT_TRUE(log.ok()) << "cut " << cut << ": " << log.status();
    EXPECT_TRUE(log.value().truncated_tail) << "cut " << cut;
    EXPECT_EQ(log.value().records.size(), 2u) << "cut " << cut;
    EXPECT_EQ(log.value().valid_bytes, two_records_end) << "cut " << cut;
  }
}

TEST(LogTest, ReopenTruncatesTheTornTailAndAppendsCleanly) {
  TempDir dir;
  std::string path = WriteWal(dir, 3);
  std::string full = ReadFile(path);
  WriteFile(path, full.substr(0, full.size() - 1));  // tear one byte off

  store::LogContents recovered;
  auto w = store::LogWriter::Open(path, 3, 8, {}, &recovered);
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_TRUE(recovered.truncated_tail);
  EXPECT_EQ(recovered.records.size(), 2u);
  store::LogRecord r;
  r.lsn = 3;  // record 3 was torn, so its LSN is reusable
  r.type = store::RecordType::kFact;
  r.session = "s";
  r.text = "r(9).";
  ASSERT_TRUE(w.value()->Append(r).ok());
  w.value().reset();

  auto log = store::ReadLog(path);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_FALSE(log.value().truncated_tail);
  ASSERT_EQ(log.value().records.size(), 3u);
  EXPECT_EQ(log.value().records[2].text, "r(9).");
}

TEST(LogTest, FlippedPayloadByteMidLogIsAHardCrcError) {
  TempDir dir;
  std::string path = WriteWal(dir, 3);
  std::string full = ReadFile(path);
  // Flip one byte inside the FIRST frame's payload (well before EOF): the
  // frame is complete, so this must be corruption, not a torn tail.
  std::string bad = full;
  bad[store::kWalHeaderBytes + 8 + 2] ^= 0x40;
  WriteFile(path, bad);
  auto log = store::ReadLog(path);
  ASSERT_FALSE(log.ok());
  EXPECT_NE(log.status().message().find("crc mismatch"), std::string::npos)
      << log.status();
  // The appender must refuse the file too.
  auto w = store::LogWriter::Open(path, 3, 8, {}, nullptr);
  EXPECT_FALSE(w.ok());
}

TEST(LogTest, NonMonotoneLsnIsAHardError) {
  TempDir dir;
  std::string path = dir / "wal";
  auto w = store::LogWriter::Open(path, 0, 1, {}, nullptr);
  ASSERT_TRUE(w.ok());
  store::LogRecord r;
  r.type = store::RecordType::kFact;
  r.session = "s";
  r.text = "r(1).";
  r.lsn = 5;
  ASSERT_TRUE(w.value()->Append(r).ok());
  r.lsn = 5;  // not strictly increasing
  ASSERT_TRUE(w.value()->Append(r).ok());  // the writer does not police LSNs
  w.value().reset();
  auto log = store::ReadLog(path);
  EXPECT_FALSE(log.ok());
}

TEST(LogTest, ParseFsyncPolicy) {
  EXPECT_TRUE(store::ParseFsyncPolicy("always").ok());
  EXPECT_TRUE(store::ParseFsyncPolicy("interval").ok());
  EXPECT_TRUE(store::ParseFsyncPolicy("never").ok());
  EXPECT_FALSE(store::ParseFsyncPolicy("sometimes").ok());
  EXPECT_EQ(store::ParseFsyncPolicy("always").value(),
            store::FsyncPolicy::kAlways);
  EXPECT_STREQ(store::FsyncPolicyName(store::FsyncPolicy::kInterval),
               "interval");
}

// ---- Snapshots -------------------------------------------------------------

/// Builds a session with two views, a retract (exercising derivation
/// counts), and warm planner sketches.
void BuildSession(EngineContext& ctx, ivm::MaterializedViewSet* store) {
  ASSERT_TRUE(store->AddView(ctx, Parse("v(X, Y) :- r(X, Y), X <= 5")).ok());
  ASSERT_TRUE(store->AddView(ctx, Parse("w(X) :- r(X, Y), r(Y, Z)")).ok());
  ASSERT_TRUE(
      store->ApplyInsert(ctx, Db("r(1, 2). r(2, 3). r(4, 2). r(7, 1).")).ok());
  // w(1) now has two derivations (via r(1,2)r(2,3)); retracting r(4,2)
  // leaves counts that differ from a fresh materialization's history.
  ASSERT_TRUE(store->ApplyRetract(ctx, Db("r(4, 2).")).ok());
}

TEST(SnapshotTest, RoundTripsFullSessionState) {
  TempDir dir;
  EngineContext ctx;
  ivm::MaterializedViewSet session;
  BuildSession(ctx, &session);
  ctx.adaptive().ivm_incremental.factor = 2.5;
  ctx.adaptive().ivm_incremental.observations = 17;

  std::string name = "alpha";
  std::vector<std::string> texts = {"v(X, Y) :- r(X, Y), X <= 5",
                                    "w(X) :- r(X, Y), r(Y, Z)"};
  store::SessionSnapshotRef ref;
  ref.name = &name;
  ref.view_texts = &texts;
  ref.store = &session;
  std::string path = dir / "snap.cqs";
  ASSERT_TRUE(
      store::WriteSnapshotFile(path, 123, ctx.adaptive(), {ref}).ok());

  auto snap = store::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().lsn, 123u);
  ASSERT_TRUE(snap.value().has_adaptive);
  EXPECT_DOUBLE_EQ(snap.value().adaptive.ivm_incremental.factor, 2.5);
  EXPECT_EQ(snap.value().adaptive.ivm_incremental.observations, 17u);
  ASSERT_EQ(snap.value().sessions.size(), 1u);

  const store::SessionState& s = *snap.value().sessions[0];
  EXPECT_EQ(s.name, "alpha");
  EXPECT_EQ(s.view_texts, texts);
  ASSERT_EQ(s.view_sources.size(), 2u);
  EXPECT_EQ(s.store.base().ToString(), session.base().ToString());
  EXPECT_EQ(s.store.views().ToString(), session.views().ToString());
  EXPECT_EQ(s.store.counts(), session.counts());
  EXPECT_EQ(s.store.maintained(), session.maintained());
  // Planner sketches are insert-monotone: the restored estimate must match
  // the live one (which still remembers the retracted r(4, 2)).
  EXPECT_DOUBLE_EQ(s.store.base().stats().DistinctEstimate("r", 0),
                   session.base().stats().DistinctEstimate("r", 0));
}

TEST(SnapshotTest, RestoredSessionKeepsMaintainingIncrementally) {
  TempDir dir;
  EngineContext ctx;
  ivm::MaterializedViewSet session;
  BuildSession(ctx, &session);
  std::string name = "s";
  std::vector<std::string> texts = {"v(X, Y) :- r(X, Y), X <= 5",
                                    "w(X) :- r(X, Y), r(Y, Z)"};
  store::SessionSnapshotRef ref{&name, &texts, &session};
  std::string path = dir / "snap.cqs";
  ASSERT_TRUE(store::WriteSnapshotFile(path, 1, ctx.adaptive(), {ref}).ok());
  auto snap = store::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  store::SessionState& restored = *snap.value().sessions[0];

  // The same mutation applied to both must yield identical state. (Whether
  // the maintainer picks the incremental or rebuild arm is the planner's
  // call and may differ on tiny bases; the states must agree either way.)
  EngineContext ctx2;
  ASSERT_TRUE(restored.store.ApplyRetract(ctx2, Db("r(1, 2).")).ok());
  ASSERT_TRUE(session.ApplyRetract(ctx, Db("r(1, 2).")).ok());
  EXPECT_EQ(restored.store.views().ToString(), session.views().ToString());
  EXPECT_EQ(restored.store.counts(), session.counts());
  EXPECT_EQ(ctx2.stats().ivm_applies, 1u);
}

TEST(SnapshotTest, TruncationAndBitFlipsAreErrors) {
  TempDir dir;
  EngineContext ctx;
  ivm::MaterializedViewSet session;
  BuildSession(ctx, &session);
  std::string name = "s";
  std::vector<std::string> texts = {"v(X, Y) :- r(X, Y), X <= 5",
                                    "w(X) :- r(X, Y), r(Y, Z)"};
  store::SessionSnapshotRef ref{&name, &texts, &session};
  std::string path = dir / "snap.cqs";
  ASSERT_TRUE(store::WriteSnapshotFile(path, 9, ctx.adaptive(), {ref}).ok());
  std::string full = ReadFile(path);

  // Any truncation fails (the kEnd marker guards even clean-frame cuts).
  for (size_t cut : {full.size() - 1, full.size() - 9, full.size() / 2,
                     size_t{20}, size_t{3}}) {
    std::string p = dir / ("cut" + std::to_string(cut));
    WriteFile(p, full.substr(0, cut));
    EXPECT_FALSE(store::ReadSnapshotFile(p).ok()) << "cut " << cut;
  }
  // A flipped byte mid-file is a CRC error.
  std::string bad = full;
  bad[full.size() / 2] ^= 0x10;
  std::string p = dir / "flipped";
  WriteFile(p, bad);
  auto r = store::ReadSnapshotFile(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("corrupt"), std::string::npos);
}

TEST(SnapshotTest, EmptySnapshotRoundTrips) {
  TempDir dir;
  AdaptiveState adaptive;
  std::string path = dir / "snap.cqs";
  ASSERT_TRUE(store::WriteSnapshotFile(path, 0, adaptive, {}).ok());
  auto snap = store::ReadSnapshotFile(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_TRUE(snap.value().sessions.empty());
}

// ---- Data dir / manifest ---------------------------------------------------

TEST(StoreTest, ManifestPinsTheShardCount) {
  TempDir dir;
  std::string data = dir / "data";
  ASSERT_TRUE(store::InitDataDir(data, 4).ok());
  auto shards = store::ManifestShards(data);
  ASSERT_TRUE(shards.ok());
  EXPECT_EQ(shards.value(), 4u);
  EXPECT_TRUE(store::InitDataDir(data, 4).ok());  // same count: fine
  Status changed = store::InitDataDir(data, 8);
  ASSERT_FALSE(changed.ok());
  EXPECT_NE(changed.message().find("--shards"), std::string::npos);
}

// InitDataDir and ManifestShards check one bound, so a data dir that was
// created can always be reopened.
TEST(StoreTest, ManifestShardBoundHoldsOnWriteAndRead) {
  TempDir dir;
  std::string over = dir / "over";
  EXPECT_FALSE(store::InitDataDir(over, 4097).ok());
  EXPECT_FALSE(fs::exists(over + "/MANIFEST"));
  std::string max = dir / "max";
  ASSERT_TRUE(store::InitDataDir(max, 4096).ok());
  auto shards = store::ManifestShards(max);
  ASSERT_TRUE(shards.ok()) << shards.status();
  EXPECT_EQ(shards.value(), 4096u);
  EXPECT_TRUE(store::InitDataDir(max, 4096).ok());
}

// ---- ShardStore + RecoverShard ---------------------------------------------

/// Drives a ShardStore the way a serve shard does: log the commit, then
/// apply it to the live session state.
struct DrivenShard {
  EngineContext ctx;
  std::unique_ptr<store::ShardStore> store;
  ivm::MaterializedViewSet session;
  std::vector<std::string> view_texts;
  std::string session_name = "s";

  void Open(const std::string& data_dir) {
    auto s = store::ShardStore::Open(data_dir, 0, 1, {}, &ctx);
    ASSERT_TRUE(s.ok()) << s.status();
    store = std::move(s).value();
  }
  void View(const std::string& rule) {
    ASSERT_TRUE(store->Append(store::RecordType::kView, session_name, rule).ok());
    ASSERT_TRUE(session.AddView(ctx, Parse(rule)).ok());
    view_texts.push_back(rule);
  }
  void Fact(const std::string& facts) {
    ASSERT_TRUE(store->Append(store::RecordType::kFact, session_name, facts).ok());
    ASSERT_TRUE(session.ApplyInsert(ctx, Db(facts)).ok());
  }
  void Retract(const std::string& facts) {
    ASSERT_TRUE(
        store->Append(store::RecordType::kRetract, session_name, facts).ok());
    ASSERT_TRUE(session.ApplyRetract(ctx, Db(facts)).ok());
  }
  void Snapshot() {
    store::SessionSnapshotRef ref{&session_name, &view_texts, &session};
    ASSERT_TRUE(store->WriteSnapshot(ctx.adaptive(), {ref}).ok());
  }
};

TEST(StoreTest, RecoversFromLogOnly) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  live.View("v(X, Y) :- r(X, Y), X <= 5");
  live.Fact("r(1, 2). r(4, 7).");
  live.Retract("r(4, 7).");

  EngineContext ctx;
  auto rec = store::RecoverShard(ctx, store::ShardDirPath(dir.path(), 0));
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec.value().snapshot_lsn, 0u);
  EXPECT_EQ(rec.value().replayed_records, 3u);
  ASSERT_EQ(rec.value().sessions.size(), 1u);
  const store::SessionState& s = *rec.value().sessions[0];
  EXPECT_EQ(s.store.base().ToString(), live.session.base().ToString());
  EXPECT_EQ(s.store.views().ToString(), live.session.views().ToString());
  EXPECT_EQ(s.store.counts(), live.session.counts());
  EXPECT_EQ(ctx.stats().store_recovery_replayed_records, 3u);
  EXPECT_EQ(ctx.stats().store_recovery_sessions, 1u);
}

TEST(StoreTest, SnapshotCompactsTheWalAndRecoveryReplaysOnlyTheTail) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  live.View("v(X, Y) :- r(X, Y), X <= 5");
  live.Fact("r(1, 2). r(2, 3).");
  live.Snapshot();  // covers LSN 2; WAL compacts to one barrier
  live.Fact("r(5, 5).");  // the tail: exactly one record after the barrier

  std::string shard_dir = store::ShardDirPath(dir.path(), 0);
  auto log = store::ReadLog(shard_dir + "/wal");
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log.value().records.size(), 2u);
  EXPECT_EQ(log.value().records[0].type, store::RecordType::kSnapshotBarrier);
  EXPECT_EQ(log.value().records[0].barrier_lsn, 2u);
  EXPECT_EQ(log.value().records[1].lsn, 3u);

  // O(delta): recovery loads the snapshot and replays ONE record, and the
  // replay goes through the ordinary maintainers (one Apply per record).
  EngineContext ctx;
  auto rec = store::RecoverShard(ctx, shard_dir);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec.value().snapshot_lsn, 2u);
  EXPECT_EQ(rec.value().replayed_records, 1u);
  EXPECT_EQ(ctx.stats().store_recovery_replayed_records, 1u);
  EXPECT_EQ(ctx.stats().ivm_applies, 1u);
  ASSERT_EQ(rec.value().sessions.size(), 1u);
  EXPECT_EQ(rec.value().sessions[0]->store.base().ToString(),
            live.session.base().ToString());
  EXPECT_EQ(rec.value().sessions[0]->store.views().ToString(),
            live.session.views().ToString());
  EXPECT_EQ(rec.value().sessions[0]->store.counts(), live.session.counts());
}

TEST(StoreTest, LsnAssignmentSurvivesReopenAndCompaction) {
  TempDir dir;
  {
    DrivenShard live;
    live.Open(dir.path());
    live.View("v(X) :- r(X), X <= 5");
    live.Fact("r(1).");
    live.Snapshot();
    EXPECT_EQ(live.store->last_lsn(), 2u);
  }
  {
    DrivenShard live;
    live.Open(dir.path());
    EXPECT_EQ(live.store->last_lsn(), 2u);  // resumes after the barrier
    ASSERT_TRUE(
        live.store->Append(store::RecordType::kFact, "s", "r(2).").ok());
    EXPECT_EQ(live.store->last_lsn(), 3u);
  }
  auto log = store::ReadLog(store::ShardDirPath(dir.path(), 0) + "/wal");
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log.value().records.size(), 2u);
  EXPECT_EQ(log.value().records[1].lsn, 3u);
}

TEST(StoreTest, KeepsOnlyTheConfiguredNumberOfSnapshots) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  live.View("v(X) :- r(X), X <= 9");
  live.Fact("r(1).");
  live.Snapshot();
  live.Fact("r(2).");
  live.Snapshot();
  live.Fact("r(3).");
  live.Snapshot();
  auto snaps = store::ListSnapshots(store::ShardDirPath(dir.path(), 0));
  ASSERT_TRUE(snaps.ok());
  EXPECT_EQ(snaps.value().size(), store::kKeepSnapshots);
  EXPECT_EQ(snaps.value().back().first, live.store->last_lsn());
}

TEST(StoreTest, ShouldSnapshotCountsRecoveredTailRecords) {
  TempDir dir;
  store::StoreOptions options;
  options.snapshot_every = 3;
  {
    DrivenShard live;
    auto s = store::ShardStore::Open(dir.path(), 0, 1, options, &live.ctx);
    ASSERT_TRUE(s.ok());
    live.store = std::move(s).value();
    live.View("v(X) :- r(X), X <= 9");
    live.Fact("r(1).");
    EXPECT_FALSE(live.store->ShouldSnapshot());
    live.Fact("r(2).");
    EXPECT_TRUE(live.store->ShouldSnapshot());
  }
  // Reopen without snapshotting: the 3 recovered records still count
  // toward the cadence, so the tail cannot grow unboundedly.
  EngineContext ctx;
  auto s = store::ShardStore::Open(dir.path(), 0, 1, options, &ctx);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.value()->ShouldSnapshot());
}

TEST(StoreTest, BarrierWithMissingSnapshotIsDetectedCorruption) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  live.View("v(X) :- r(X), X <= 5");
  live.Fact("r(1).");
  live.Snapshot();
  std::string shard_dir = store::ShardDirPath(dir.path(), 0);
  auto snaps = store::ListSnapshots(shard_dir);
  ASSERT_TRUE(snaps.ok());
  for (const auto& [lsn, path] : snaps.value()) fs::remove(path);

  EngineContext ctx;
  auto rec = store::RecoverShard(ctx, shard_dir);
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.status().message().find("snapshot"), std::string::npos)
      << rec.status();
}

// A snapshot of another format version is refused before any section is
// decoded: ReadSnapshotFile names the version, and recovery fails with it
// instead of adopting a misread state.
TEST(StoreTest, SnapshotOfAnotherVersionIsRefused) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  live.View("v(X) :- r(X), X <= 5");
  live.Fact("r(1).");
  live.Snapshot();
  std::string shard_dir = store::ShardDirPath(dir.path(), 0);
  auto snaps = store::ListSnapshots(shard_dir);
  ASSERT_TRUE(snaps.ok());
  ASSERT_EQ(snaps.value().size(), 1u);
  const std::string path = snaps.value().back().second;
  ASSERT_TRUE(store::ReadSnapshotFile(path).ok());

  // The header is [8B magic][u32 version, little-endian][u64 lsn].
  std::string bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), 12u);
  bytes.replace(8, 4, std::string("\x01\x00\x00\x00", 4));
  WriteFile(path, bytes);

  const std::string expected =
      StrCat("version 1 (expected ", store::kSnapshotVersion, ")");
  auto snap = store::ReadSnapshotFile(path);
  ASSERT_FALSE(snap.ok());
  EXPECT_NE(snap.status().message().find(expected), std::string::npos)
      << snap.status();
  EngineContext ctx;
  auto rec = store::RecoverShard(ctx, shard_dir);
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.status().message().find(expected), std::string::npos)
      << rec.status();
}

TEST(StoreTest, AppendFailureLatchesFailStop) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  live.Fact("r(1).");
  // Replace the shard directory's WAL with an unwritable situation by
  // removing the whole tree out from under the store; the next fsync-ed
  // append cannot land. (kInterval may buffer, so force kAlways.)
  store::StoreOptions options;
  options.fsync = store::FsyncPolicy::kAlways;
  EngineContext ctx;
  fs::create_directory(dir / "other");
  auto s = store::ShardStore::Open(dir / "other", 0, 1, options, &ctx);
  ASSERT_TRUE(s.ok());
  fs::remove_all(dir / "other");
  Status first = s.value()->Append(store::RecordType::kFact, "s", "r(2).");
  // Whether the OS surfaces the error on write or fsync, the store must
  // latch: either this append failed, or (if the fd stayed valid) the
  // store is still healthy — but a failed() store must refuse forever.
  if (!first.ok()) {
    EXPECT_TRUE(s.value()->failed());
    Status second = s.value()->Append(store::RecordType::kFact, "s", "r(3).");
    EXPECT_FALSE(second.ok());
  }
}

TEST(StoreTest, SnapshottingANeverWrittenShardIsANoOp) {
  // A barrier at LSN 0 would violate the log's strictly-positive LSN
  // invariant; compacting an empty shard (storectl can ask for this) must
  // leave it untouched and recoverable instead.
  TempDir dir;
  store::StoreOptions options;
  EngineContext ctx;
  auto s = store::ShardStore::Open(dir.path(), 0, 1, options, &ctx);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s.value()->WriteSnapshot(ctx.adaptive(), {}).ok());
  std::string shard_dir = store::ShardDirPath(dir.path(), 0);
  auto snaps = store::ListSnapshots(shard_dir);
  ASSERT_TRUE(snaps.ok());
  EXPECT_TRUE(snaps.value().empty());
  // The shard stays writable and the WAL stays valid.
  ASSERT_TRUE(s.value()->Append(store::RecordType::kFact, "s", "r(1).").ok());
  s.value().reset();
  EngineContext ctx2;
  auto rec = store::RecoverShard(ctx2, shard_dir);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec.value().last_lsn, 1u);
}

TEST(StoreTest, RecoverShardOnMissingDirectoryIsEmpty) {
  TempDir dir;
  EngineContext ctx;
  auto rec = store::RecoverShard(ctx, dir / "nonexistent");
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE(rec.value().sessions.empty());
  EXPECT_EQ(rec.value().last_lsn, 0u);
}

TEST(StoreTest, ReplayRejectsARuleThatNoLongerParses) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  ASSERT_TRUE(
      live.store->Append(store::RecordType::kView, "s", "not a rule!").ok());
  EngineContext ctx;
  auto rec = store::RecoverShard(ctx, store::ShardDirPath(dir.path(), 0));
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.status().message().find("wal replay"), std::string::npos)
      << rec.status();
}

TEST(StoreTest, SessionDropRemovesTheSessionFromRecovery) {
  TempDir dir;
  DrivenShard live;
  live.Open(dir.path());
  ASSERT_TRUE(live.store
                  ->Append(store::RecordType::kView, "gone",
                           "v(X) :- r(X), X <= 5")
                  .ok());
  ASSERT_TRUE(
      live.store->Append(store::RecordType::kFact, "kept", "r(1).").ok());
  ASSERT_TRUE(
      live.store->Append(store::RecordType::kSessionDrop, "gone", "").ok());
  EngineContext ctx;
  auto rec = store::RecoverShard(ctx, store::ShardDirPath(dir.path(), 0));
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(rec.value().sessions.size(), 1u);
  EXPECT_EQ(rec.value().sessions[0]->name, "kept");
}

}  // namespace
}  // namespace cqac
