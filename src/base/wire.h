// Little-endian byte encoding primitives for the on-disk formats
// (src/store logs and snapshots).
//
// All multi-byte integers are little-endian regardless of host order, so a
// data directory written on one machine reads back on any other. Strings
// are u32-length-prefixed byte runs.
//
// Decoding goes through a Cursor with a sticky ok() latch: every Read*
// bounds-checks, and the first underflow pins ok() false and makes all
// later reads return zero values. Callers validate once at the end instead
// of checking every field.
#ifndef CQAC_BASE_WIRE_H_
#define CQAC_BASE_WIRE_H_

#include <cstdint>
#include <string>

namespace cqac {
namespace wire {

inline void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

inline void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

class Cursor {
 public:
  Cursor(const char* data, size_t size) : p_(data), n_(size) {}
  explicit Cursor(const std::string& buf) : Cursor(buf.data(), buf.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return n_ - off_; }
  bool AtEnd() const { return off_ == n_; }

  uint8_t ReadU8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(p_[off_++]);
  }

  uint32_t ReadU32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<uint32_t>(static_cast<uint8_t>(p_[off_++])) << (8 * i);
    return v;
  }

  uint64_t ReadU64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<uint64_t>(static_cast<uint8_t>(p_[off_++])) << (8 * i);
    return v;
  }

  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }

  std::string ReadString() {
    uint32_t len = ReadU32();
    if (!Need(len)) return std::string();
    std::string s(p_ + off_, len);
    off_ += len;
    return s;
  }

 private:
  bool Need(size_t k) {
    if (!ok_ || n_ - off_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* p_;
  size_t n_;
  size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace wire
}  // namespace cqac

#endif  // CQAC_BASE_WIRE_H_
