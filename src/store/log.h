// The per-shard write-ahead log: an append-only file of CRC32C-framed
// records (record.h) behind a fixed header.
//
// File layout:
//
//   [8B magic "CQACWAL1"][u32 version][u32 shard_index][u32 shard_count]
//   frame*                                      (see record.h for framing)
//
// Open semantics (the recovery contract, docs/durability.md):
//
//   * torn tail — the file ends inside a frame header or payload. That is
//     the signature of a crash mid-append (or mid-header on a fresh file):
//     the partial frame is dropped, ReadLog reports truncated_tail, and
//     LogWriter::Open physically truncates to the last valid byte before
//     appending again. Every complete frame before the tear is kept.
//   * CRC mismatch on a COMPLETE frame — never produced by a crashed
//     appender (a frame is written with one write(2); a crash can shorten
//     the file but cannot corrupt the middle of it). It means the medium or
//     an operator flipped bytes, so it is a hard "crc mismatch" error, not
//     a truncation — silently dropping acknowledged commits would break the
//     acked-equals-durable contract.
//   * LSNs must be strictly increasing; a violation is a hard error.
//
// Fsync policy: kAlways syncs after every append (acked = on disk, the
// crash-test configuration), kInterval syncs at most once per 50 ms (the
// production default: bounded data loss, bounded latency), kNever leaves
// syncing to the OS (benchmarks, bulk loads).
#ifndef CQAC_STORE_LOG_H_
#define CQAC_STORE_LOG_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/store/record.h"

namespace cqac {
namespace store {

inline constexpr char kWalMagic[9] = "CQACWAL1";  // 8 bytes on disk
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalHeaderBytes = 8 + 4 + 4 + 4;

enum class FsyncPolicy { kAlways, kInterval, kNever };

Result<FsyncPolicy> ParseFsyncPolicy(const std::string& name);
const char* FsyncPolicyName(FsyncPolicy p);

/// Everything ReadLog learned from one WAL file.
struct LogContents {
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
  std::vector<LogRecord> records;
  bool truncated_tail = false;  ///< a torn frame was dropped at EOF
  uint64_t valid_bytes = 0;     ///< offset of the first torn byte
};

/// Reads and validates the WAL at `path` under the open semantics above.
/// A missing file is an error (callers that tolerate absence check first).
Result<LogContents> ReadLog(const std::string& path);

/// The appender. Single-writer by design: exactly one shard engine thread
/// appends to its shard's WAL.
class LogWriter {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kInterval;
  };

  /// Opens `path`, creating it (header + fsync) when absent, validating and
  /// truncating a torn tail when present. `shard_index`/`shard_count` are
  /// written into a fresh header and checked against an existing one.
  /// When `recovered` is non-null it receives the existing contents.
  static Result<std::unique_ptr<LogWriter>> Open(std::string path,
                                                 uint32_t shard_index,
                                                 uint32_t shard_count,
                                                 Options options,
                                                 LogContents* recovered);

  ~LogWriter();
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Appends one framed record and applies the fsync policy. Returns the
  /// frame size in bytes.
  Result<size_t> Append(const LogRecord& record);

  /// Forces an fsync now regardless of policy.
  Status Sync();

  const std::string& path() const { return path_; }
  uint64_t fsyncs() const { return fsyncs_; }
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  LogWriter(std::string path, int fd, Options options)
      : path_(std::move(path)), fd_(fd), options_(options) {}

  std::string path_;
  int fd_;
  Options options_;
  uint64_t fsyncs_ = 0;
  uint64_t bytes_appended_ = 0;
  std::chrono::steady_clock::time_point last_sync_ =
      std::chrono::steady_clock::now();
};

}  // namespace store
}  // namespace cqac

#endif  // CQAC_STORE_LOG_H_
