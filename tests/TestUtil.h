//===- TestUtil.h - Shared helpers for VYRD tests ---------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for writing scripted logs and running checkers in tests.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_TESTS_TESTUTIL_H
#define VYRD_TESTS_TESTUTIL_H

#include "vyrd/Checker.h"
#include "vyrd/Names.h"

#include <gtest/gtest.h>

#include <cctype>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace vyrd {
namespace test {

/// Feeds a scripted sequence of actions (sequence numbers assigned in
/// order) and finishes the checker.
inline void runScript(RefinementChecker &C, std::vector<Action> Script) {
  uint64_t Seq = 0;
  for (Action &A : Script) {
    A.Seq = Seq++;
    C.feed(A);
  }
  C.finish();
}

/// True when any recorded violation has kind \p K.
inline bool hasViolation(const RefinementChecker &C, ViolationKind K) {
  for (const Violation &V : C.violations())
    if (V.Kind == K)
      return true;
  return false;
}

inline Name name(const char *S) { return internName(S); }

/// A materialised view holding exactly \p Entries.
inline View viewOf(std::initializer_list<std::pair<Value, Value>> Entries) {
  View V;
  for (const auto &[K, Val] : Entries)
    V.add(K, Val);
  return V;
}

/// Checks an incrementally maintained (digest-only) view: its digest must
/// equal the expected materialised view's, and so must the digest of what
/// \p Side (a Spec or Replayer) rebuilds, whose entries must be exactly
/// \p Expected.
template <typename SideT>
::testing::AssertionResult viewMatches(const View &Inc, const View &Expected,
                                       const SideT &Side) {
  View Fresh;
  Side.buildView(Fresh);
  if (Inc != Expected)
    return ::testing::AssertionFailure()
           << "incremental digest (" << Inc.size()
           << " entries) differs from the expected " << Expected.str();
  if (!Fresh.deepEquals(Expected))
    return ::testing::AssertionFailure()
           << "rebuilt view differs from the expected one: "
           << View::diff(Fresh, Expected);
  return ::testing::AssertionSuccess();
}

namespace json_detail {

/// Minimal recursive-descent JSON syntax checker (no value extraction);
/// enough to assert that the machine-readable outputs — telemetry
/// snapshots, trace files, bench result files — are well-formed without
/// pulling a JSON library into the tests.
struct Cursor {
  const char *P;
  const char *End;

  void ws() {
    while (P < End && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }

  bool eat(char C) {
    if (P < End && *P == C) {
      ++P;
      return true;
    }
    return false;
  }

  bool string() {
    if (!eat('"'))
      return false;
    while (P < End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P >= End)
          return false;
      }
      ++P;
    }
    return eat('"');
  }

  bool number() {
    const char *Start = P;
    eat('-');
    while (P < End && (std::isdigit(static_cast<unsigned char>(*P)) ||
                       *P == '.' || *P == 'e' || *P == 'E' || *P == '+' ||
                       *P == '-'))
      ++P;
    return P > Start;
  }

  bool literal(const char *L) {
    size_t N = std::char_traits<char>::length(L);
    if (static_cast<size_t>(End - P) < N ||
        std::char_traits<char>::compare(P, L, N) != 0)
      return false;
    P += N;
    return true;
  }

  bool value() {
    ws();
    if (P >= End)
      return false;
    switch (*P) {
    case '{': {
      ++P;
      ws();
      if (eat('}'))
        return true;
      do {
        ws();
        if (!string())
          return false;
        ws();
        if (!eat(':') || !value())
          return false;
        ws();
      } while (eat(','));
      return eat('}');
    }
    case '[': {
      ++P;
      ws();
      if (eat(']'))
        return true;
      do {
        if (!value())
          return false;
        ws();
      } while (eat(','));
      return eat(']');
    }
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
};

} // namespace json_detail

/// True iff \p S is exactly one syntactically valid JSON value (plus
/// optional surrounding whitespace).
inline bool jsonValid(const std::string &S) {
  json_detail::Cursor C{S.data(), S.data() + S.size()};
  if (!C.value())
    return false;
  C.ws();
  return C.P == C.End;
}

/// Number of non-overlapping occurrences of \p Needle in \p S.
inline size_t countOccurrences(const std::string &S,
                               const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = S.find(Needle); Pos != std::string::npos;
       Pos = S.find(Needle, Pos + Needle.size()))
    ++N;
  return N;
}

} // namespace test
} // namespace vyrd

#endif // VYRD_TESTS_TESTUTIL_H
