// Small string utilities shared across the library.
#ifndef CQAC_BASE_STRINGS_H_
#define CQAC_BASE_STRINGS_H_

#include <sstream>
#include <string>
#include <vector>

namespace cqac {

/// Joins the elements of `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Splits `text` on the single character `sep`; keeps empty fields.
std::vector<std::string> Split(const std::string& text, char sep);

/// Parses a plain decimal count: digits only (no sign, no blanks), and no
/// overflow. The one parser of the command-line tools' numeric flags.
bool ParseSize(const char* text, size_t* out);

/// printf-lite: concatenates the string forms of all arguments.
template <typename... Args>
std::string StrCat(Args&&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

}  // namespace cqac

#endif  // CQAC_BASE_STRINGS_H_
