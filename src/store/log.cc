#include "src/store/log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/base/strings.h"
#include "src/base/wire.h"
#include "src/store/crc32c.h"

namespace cqac {
namespace store {

namespace {

// The kInterval policy's sync interval.
constexpr std::chrono::milliseconds kFsyncInterval{50};

Status Errno(const char* what, const std::string& path) {
  return Status::Internal(StrCat(what, " ", path, ": ", std::strerror(errno)));
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "never") return FsyncPolicy::kNever;
  return Status::InvalidArgument(
      StrCat("unknown fsync policy '", name,
             "' (expected always, interval, or never)"));
}

const char* FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

Result<LogContents> ReadLog(const std::string& path) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes))
    return Status::NotFound(StrCat("cannot open wal ", path));

  LogContents out;
  // A file shorter than the header is the torn remnant of a crashed
  // create: recover to an empty log (the writer rewrites the header).
  if (bytes.size() < kWalHeaderBytes) {
    out.truncated_tail = !bytes.empty();
    out.valid_bytes = 0;
    return out;
  }
  if (std::memcmp(bytes.data(), kWalMagic, 8) != 0)
    return Status::Inconsistent(StrCat("wal corrupt: bad magic in ", path));
  wire::Cursor header(bytes.data() + 8, kWalHeaderBytes - 8);
  uint32_t version = header.ReadU32();
  out.shard_index = header.ReadU32();
  out.shard_count = header.ReadU32();
  if (version != kWalVersion)
    return Status::Unsupported(
        StrCat("wal version ", version, " in ", path, " (expected ",
               kWalVersion, ")"));

  size_t off = kWalHeaderBytes;
  uint64_t last_lsn = 0;
  while (off < bytes.size()) {
    if (bytes.size() - off < 8) {  // torn frame header
      out.truncated_tail = true;
      break;
    }
    wire::Cursor fh(bytes.data() + off, 8);
    uint32_t len = fh.ReadU32();
    uint32_t crc = fh.ReadU32();
    if (bytes.size() - off - 8 < len) {  // torn payload
      out.truncated_tail = true;
      break;
    }
    const char* payload = bytes.data() + off + 8;
    if (Crc32c(payload, len) != crc)
      return Status::Inconsistent(
          StrCat("wal corrupt: crc mismatch at offset ", off, " in ", path));
    wire::Cursor body(payload, len);
    LogRecord rec;
    if (!DecodeRecord(&body, &rec) || !body.AtEnd())
      return Status::Inconsistent(
          StrCat("wal corrupt: undecodable record at offset ", off, " in ",
                 path));
    if (rec.lsn <= last_lsn)
      return Status::Inconsistent(
          StrCat("wal corrupt: lsn ", rec.lsn, " after ", last_lsn, " in ",
                 path));
    last_lsn = rec.lsn;
    out.records.push_back(std::move(rec));
    off += 8 + len;
  }
  out.valid_bytes = off;
  return out;
}

Result<std::unique_ptr<LogWriter>> LogWriter::Open(std::string path,
                                                   uint32_t shard_index,
                                                   uint32_t shard_count,
                                                   Options options,
                                                   LogContents* recovered) {
  bool fresh = ::access(path.c_str(), F_OK) != 0;
  uint64_t resume_at = 0;
  if (!fresh) {
    Result<LogContents> contents = ReadLog(path);
    CQAC_RETURN_IF_ERROR(contents.status());
    if (contents.value().valid_bytes >= kWalHeaderBytes &&
        (contents.value().shard_index != shard_index ||
         contents.value().shard_count != shard_count))
      return Status::InvalidArgument(
          StrCat("wal ", path, " belongs to shard ",
                 contents.value().shard_index, "/",
                 contents.value().shard_count, ", not ", shard_index, "/",
                 shard_count));
    resume_at = contents.value().valid_bytes;
    fresh = resume_at == 0;  // torn header: rewrite from scratch
    if (recovered != nullptr) *recovered = std::move(contents).value();
  } else if (recovered != nullptr) {
    *recovered = LogContents{};
  }

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return Errno("open wal", path);
  auto writer =
      std::unique_ptr<LogWriter>(new LogWriter(path, fd, options));
  if (fresh) {
    if (::ftruncate(fd, 0) != 0) return Errno("truncate wal", path);
    std::string header(kWalMagic, 8);
    wire::AppendU32(&header, kWalVersion);
    wire::AppendU32(&header, shard_index);
    wire::AppendU32(&header, shard_count);
    if (!WriteAll(fd, header)) return Errno("write wal header", path);
    CQAC_RETURN_IF_ERROR(writer->Sync());
  } else {
    // Drop the torn tail (if any) and position at the end.
    if (::ftruncate(fd, static_cast<off_t>(resume_at)) != 0)
      return Errno("truncate wal", path);
    if (::lseek(fd, 0, SEEK_END) < 0) return Errno("seek wal", path);
  }
  return writer;
}

LogWriter::~LogWriter() {
  if (fd_ >= 0) {
    // A final best-effort sync on clean shutdown, whatever the policy.
    ::fsync(fd_);
    ::close(fd_);
  }
}

Result<size_t> LogWriter::Append(const LogRecord& record) {
  std::string payload;
  EncodeRecord(record, &payload);
  std::string frame;
  frame.reserve(payload.size() + 8);
  AppendFrame(payload, &frame);
  if (!WriteAll(fd_, frame)) return Errno("append wal", path_);
  bytes_appended_ += frame.size();
  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      CQAC_RETURN_IF_ERROR(Sync());
      break;
    case FsyncPolicy::kInterval: {
      auto now = std::chrono::steady_clock::now();
      if (now - last_sync_ >= kFsyncInterval) CQAC_RETURN_IF_ERROR(Sync());
      break;
    }
    case FsyncPolicy::kNever:
      break;
  }
  return frame.size();
}

Status LogWriter::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync wal", path_);
  ++fsyncs_;
  last_sync_ = std::chrono::steady_clock::now();
  return Status::OK();
}

}  // namespace store
}  // namespace cqac
