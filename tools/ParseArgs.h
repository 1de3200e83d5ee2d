//===- ParseArgs.h - Command-line number parsing for the tools --*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef VYRD_TOOLS_PARSEARGS_H
#define VYRD_TOOLS_PARSEARGS_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace vyrd::tools {

/// Parses a whole unsigned decimal number into \p Out: no sign, no
/// trailing characters, no overflow. A negative value would otherwise
/// wrap to ~2^64 through strtoull.
inline bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*S)))
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno == ERANGE || *End != '\0')
    return false;
  Out = V;
  return true;
}

} // namespace vyrd::tools

#endif // VYRD_TOOLS_PARSEARGS_H
