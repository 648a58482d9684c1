#include "src/base/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace cqac {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

bool ParseSize(const char* text, size_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(*text))) return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long n = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = static_cast<size_t>(n);
  return true;
}

}  // namespace cqac
