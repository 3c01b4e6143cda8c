//===- Strings.h - Small string helpers -------------------------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String and number parsing shared by the command-line tools.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_SUPPORT_STRINGS_H
#define GETAFIX_SUPPORT_STRINGS_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace getafix {

/// Splits \p Text on \p Sep, dropping empty pieces ("a,,b" -> {a, b}).
/// Used by the tools' comma-separated list flags (`getafix --targets`,
/// `fpsolve --eval`).
inline std::vector<std::string> splitList(const std::string &Text,
                                          char Sep = ',') {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : Text) {
    if (C == Sep) {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Parses \p Text as a decimal integer in [\p Min, \p Max] into \p Out.
/// Digits only: a sign, a space, trailing junk, an empty string or an
/// out-of-range value returns false and leaves \p Out alone. The tools'
/// integer flags all go through this, so `--context-bound -1` is a usage
/// error rather than a bound of 4294967295.
template <typename T>
bool parseUnsigned(const char *Text, T &Out, uint64_t Min = 0,
                   uint64_t Max = std::numeric_limits<T>::max()) {
  if (!Text || !*Text)
    return false;
  uint64_t V = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    uint64_t Digit = uint64_t(*P - '0');
    if (V > (UINT64_MAX - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  if (V < Min || V > Max)
    return false;
  Out = T(V);
  return true;
}

} // namespace getafix

#endif // GETAFIX_SUPPORT_STRINGS_H
