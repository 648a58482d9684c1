#include "src/store/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/base/strings.h"
#include "src/base/wire.h"
#include "src/ir/serial.h"
#include "src/store/crc32c.h"
#include "src/store/record.h"

namespace cqac {
namespace store {

namespace {

// Older builds wrote a planner calibration as the first section; its body
// is skipped.
constexpr uint8_t kSectionCalibration = 1;
constexpr uint8_t kSectionSession = 2;
constexpr uint8_t kSectionEnd = 3;

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::Inconsistent(StrCat("snapshot ", path, " corrupt: ", why));
}

void SerializeRelationStats(std::string* out, const plan::RelationStats& s) {
  wire::AppendU32(out, static_cast<uint32_t>(s.sketches().size()));
  for (const auto& [pred, cols] : s.sketches()) {
    wire::AppendString(out, pred);
    wire::AppendU32(out, static_cast<uint32_t>(cols.size()));
    for (const plan::DistinctSketch& sk : cols) {
      wire::AppendU32(out, static_cast<uint32_t>(sk.hashes().size()));
      for (uint64_t h : sk.hashes()) wire::AppendU64(out, h);
      wire::AppendU8(out, sk.saturated() ? 1 : 0);
    }
  }
}

bool DeserializeRelationStats(wire::Cursor* c, plan::RelationStats* out) {
  std::map<std::string, std::vector<plan::DistinctSketch>> sketches;
  uint32_t npred = c->ReadU32();
  for (uint32_t i = 0; i < npred && c->ok(); ++i) {
    std::string pred = c->ReadString();
    uint32_t ncols = c->ReadU32();
    std::vector<plan::DistinctSketch> cols;
    if (!c->ok() || ncols > c->remaining()) return false;
    cols.resize(ncols);
    for (uint32_t j = 0; j < ncols && c->ok(); ++j) {
      uint32_t nh = c->ReadU32();
      std::set<uint64_t> hashes;
      if (!c->ok() || nh > plan::DistinctSketch::kK) return false;
      for (uint32_t k = 0; k < nh && c->ok(); ++k) hashes.insert(c->ReadU64());
      bool saturated = c->ReadU8() != 0;
      cols[j].Restore(std::move(hashes), saturated);
    }
    sketches.emplace(std::move(pred), std::move(cols));
  }
  if (!c->ok()) return false;
  out->RestoreSketches(std::move(sketches));
  return true;
}

void SerializeDatabase(std::string* out, const Database& db) {
  wire::AppendU32(out, static_cast<uint32_t>(db.relations().size()));
  for (const auto& [pred, rel] : db.relations()) {
    wire::AppendString(out, pred);
    wire::AppendU64(out, rel.size());
    for (const Tuple& t : rel) SerializeTuple(out, t);
  }
  SerializeRelationStats(out, db.stats());
}

Status DeserializeDatabase(wire::Cursor* c, const std::string& path,
                           Database* out) {
  uint32_t nrel = c->ReadU32();
  for (uint32_t i = 0; i < nrel && c->ok(); ++i) {
    std::string pred = c->ReadString();
    uint64_t ntuples = c->ReadU64();
    if (!c->ok() || ntuples > c->remaining())
      return Corrupt(path, "database section truncated");
    for (uint64_t j = 0; j < ntuples && c->ok(); ++j) {
      Tuple t = DeserializeTuple(c);
      if (!c->ok()) break;
      CQAC_RETURN_IF_ERROR(out->Insert(pred, std::move(t)));
    }
  }
  plan::RelationStats stats;
  if (!c->ok() || !DeserializeRelationStats(c, &stats))
    return Corrupt(path, "database section truncated");
  out->RestoreStats(std::move(stats));
  return Status::OK();
}

void SerializeSession(std::string* out, const SessionSnapshotRef& s) {
  wire::AppendString(out, *s.name);
  wire::AppendU32(out, static_cast<uint32_t>(s.view_texts->size()));
  for (const std::string& text : *s.view_texts) wire::AppendString(out, text);
  SerializeDatabase(out, s.store->base());
  wire::AppendU32(out, static_cast<uint32_t>(s.store->counts().size()));
  for (const auto& counts : s.store->counts()) {
    wire::AppendU64(out, counts.size());
    for (const auto& [tuple, count] : counts) {
      SerializeTuple(out, tuple);
      wire::AppendI64(out, count);
    }
  }
  SerializeDatabase(out, s.store->views());
  wire::AppendU8(out, s.store->maintained() ? 1 : 0);
}

Result<std::unique_ptr<SessionState>> DeserializeSession(
    wire::Cursor* c, const std::string& path) {
  auto state = std::make_unique<SessionState>();
  state->name = c->ReadString();
  uint32_t nviews = c->ReadU32();
  if (!c->ok() || nviews > c->remaining())
    return Corrupt(path, "session section truncated");
  std::vector<Query> queries;
  queries.reserve(nviews);
  for (uint32_t i = 0; i < nviews && c->ok(); ++i) {
    std::string text = c->ReadString();
    if (!c->ok()) break;
    Result<ParsedQuery> parsed = ParseQueryWithInfo(text);
    if (!parsed.ok())
      return Status::Inconsistent(
          StrCat("snapshot ", path, ": view rule of session '", state->name,
                 "' no longer parses: ", parsed.status().message()));
    CQAC_RETURN_IF_ERROR(state->views.Add(parsed.value().query));
    queries.push_back(parsed.value().query);
    state->view_sources.push_back(std::move(parsed).value());
    state->view_texts.push_back(std::move(text));
  }
  Database base;
  CQAC_RETURN_IF_ERROR(DeserializeDatabase(c, path, &base));
  uint32_t ncounts = c->ReadU32();
  if (!c->ok() || ncounts > c->remaining())
    return Corrupt(path, "session section truncated");
  std::vector<ivm::MaterializedViewSet::CountMap> counts(ncounts);
  for (uint32_t i = 0; i < ncounts && c->ok(); ++i) {
    uint64_t n = c->ReadU64();
    if (!c->ok() || n > c->remaining()) break;
    for (uint64_t j = 0; j < n && c->ok(); ++j) {
      Tuple t = DeserializeTuple(c);
      int64_t count = c->ReadI64();
      if (c->ok()) counts[i].emplace(std::move(t), count);
    }
  }
  Database views;
  CQAC_RETURN_IF_ERROR(DeserializeDatabase(c, path, &views));
  uint8_t maintained = c->ReadU8();
  if (!c->ok() || !c->AtEnd())
    return Corrupt(path, "session section truncated");
  CQAC_RETURN_IF_ERROR(state->store.RestoreSnapshot(
      std::move(base), std::move(queries), std::move(counts),
      std::move(views), maintained != 0));
  return state;
}

}  // namespace

Result<ivm::ApplySummary> SessionState::Apply(
    EngineContext& ctx, RecordType type, const std::string& text,
    ivm::MaintenanceCertificate* cert) {
  switch (type) {
    case RecordType::kView: {
      // Every check runs before anything is mutated; AddView rolls its own
      // half back on an exhausted budget, and the registry is appended only
      // once the store has accepted the view.
      CQAC_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQueryWithInfo(text));
      const Query& view = parsed.query;
      if (views.Find(view.head().predicate) != nullptr)
        return Status::InvalidArgument(
            StrCat("duplicate view name '", view.head().predicate, "'"));
      CQAC_RETURN_IF_ERROR(view.Validate());
      CQAC_RETURN_IF_ERROR(store.AddView(ctx, view));
      CQAC_RETURN_IF_ERROR(views.Add(view));
      view_sources.push_back(std::move(parsed));
      view_texts.push_back(text);
      return ivm::ApplySummary{};
    }
    case RecordType::kFact:
    case RecordType::kRetract: {
      // The maintainer undoes its own work when the budget runs out.
      CQAC_ASSIGN_OR_RETURN(Database facts, Database::FromFacts(text));
      return type == RecordType::kFact
                 ? store.ApplyInsert(ctx, facts, {}, cert)
                 : store.ApplyRetract(ctx, facts, {}, cert);
    }
    default:
      return Status::InvalidArgument(
          StrCat("a ", RecordTypeName(type),
                 " record does not change a session's state"));
  }
}

Status WriteSnapshotFile(const std::string& path, uint64_t lsn,
                         const std::vector<SessionSnapshotRef>& sessions) {
  std::string bytes(kSnapshotMagic, 8);
  wire::AppendU32(&bytes, kSnapshotVersion);
  wire::AppendU64(&bytes, lsn);

  std::string payload;
  for (const SessionSnapshotRef& s : sessions) {
    payload.assign(1, static_cast<char>(kSectionSession));
    SerializeSession(&payload, s);
    AppendFrame(payload, &bytes);
  }
  payload.assign(1, static_cast<char>(kSectionEnd));
  AppendFrame(payload, &bytes);

  // tmp + fsync + rename: a crash at any point leaves either the old
  // snapshot or the complete new one, never a half-written file under the
  // final name.
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    return Status::Internal(
        StrCat("open ", tmp, ": ", std::strerror(errno)));
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st =
          Status::Internal(StrCat("write ", tmp, ": ", std::strerror(errno)));
      ::close(fd);
      return st;
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st =
        Status::Internal(StrCat("fsync ", tmp, ": ", std::strerror(errno)));
    ::close(fd);
    return st;
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    return Status::Internal(
        StrCat("rename ", tmp, " -> ", path, ": ", std::strerror(errno)));
  return Status::OK();
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("cannot open snapshot ", path));
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();

  constexpr size_t kHeaderBytes = 8 + 4 + 8;
  if (bytes.size() < kHeaderBytes) return Corrupt(path, "short header");
  if (std::memcmp(bytes.data(), kSnapshotMagic, 8) != 0)
    return Corrupt(path, "bad magic");
  wire::Cursor header(bytes.data() + 8, kHeaderBytes - 8);
  uint32_t version = header.ReadU32();
  if (version != kSnapshotVersion)
    return Status::Unsupported(
        StrCat("snapshot ", path, " version ", version, " (expected ",
               kSnapshotVersion, ")"));

  SnapshotData out;
  out.lsn = header.ReadU64();
  size_t off = kHeaderBytes;
  bool saw_end = false;
  while (off < bytes.size() && !saw_end) {
    if (bytes.size() - off < 8) return Corrupt(path, "torn frame header");
    wire::Cursor fh(bytes.data() + off, 8);
    uint32_t len = fh.ReadU32();
    uint32_t crc = fh.ReadU32();
    if (bytes.size() - off - 8 < len) return Corrupt(path, "torn frame");
    const char* payload = bytes.data() + off + 8;
    if (Crc32c(payload, len) != crc)
      return Corrupt(path, StrCat("crc mismatch at offset ", off));
    if (len == 0) return Corrupt(path, "empty section");
    wire::Cursor body(payload + 1, len - 1);
    switch (static_cast<uint8_t>(payload[0])) {
      case kSectionCalibration:
        break;
      case kSectionSession: {
        Result<std::unique_ptr<SessionState>> s =
            DeserializeSession(&body, path);
        CQAC_RETURN_IF_ERROR(s.status());
        out.sessions.push_back(std::move(s).value());
        break;
      }
      case kSectionEnd:
        saw_end = true;
        break;
      default:
        return Corrupt(path, "unknown section kind");
    }
    off += 8 + len;
  }
  if (!saw_end) return Corrupt(path, "missing end marker");
  return out;
}

}  // namespace store
}  // namespace cqac
