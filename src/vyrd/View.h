//===- View.h - Canonical abstract-state views ------------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A View is the value of the hypothetical viewI/viewS variable of Sec. 5:
/// a canonical representation of the abstract data structure contents,
/// modeled as a multiset of (key, value) pairs. Both the specification
/// (viewS) and the replayer (viewI) maintain their View incrementally as
/// methods commit; the checker compares the two at every mutator commit.
///
/// Every View keeps its size and two independent order-insensitive 64-bit
/// hash accumulators, updated on every add/remove, so comparison is O(1)
/// (Sec. 6.4, incremental computation and comparison of views). Only a
/// *materialised* View (the default) also keeps its entries. The checker's
/// incremental views are *digest-only*; buildView materialises the spec or
/// shadow state when a digest mismatch needs an exact answer and a diff.
/// A digest cannot tell that a removed entry was never added.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_VIEW_H
#define VYRD_VIEW_H

#include "vyrd/Value.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace vyrd {

/// One (key, value) entry of a view.
struct ViewEntry {
  Value Key;
  Value Val;

  friend bool operator<(const ViewEntry &L, const ViewEntry &R) {
    if (L.Key < R.Key)
      return true;
    if (R.Key < L.Key)
      return false;
    return L.Val < R.Val;
  }
  friend bool operator==(const ViewEntry &L, const ViewEntry &R) {
    return L.Key == R.Key && L.Val == R.Val;
  }
};

/// A multiset of ViewEntry with incrementally maintained hashes.
class View {
public:
  /// A materialised view: entries and digest.
  View() = default;

  /// A digest-only view: size and hashes, no entries. Starts empty, or
  /// with the digest of \p Seed.
  static View digestOnly() { return digestOnly(View()); }
  static View digestOnly(const View &Seed);

  /// Adds one occurrence of (\p Key, \p Val).
  void add(const Value &Key, const Value &Val);

  /// Removes one occurrence of (\p Key, \p Val), which must have been added.
  /// \returns false if a materialised view lacks it (view unchanged).
  bool remove(const Value &Key, const Value &Val);

  /// Empties the view; a digest-only view stays digest-only.
  void clear();

  bool materialised() const { return Materialised; }
  size_t size() const { return Total; }
  bool empty() const { return Total == 0; }

  /// The two hash accumulators. Equal views have equal digests; unequal
  /// views collide with probability ~2^-128 per comparison.
  std::pair<uint64_t, uint64_t> digest() const { return {H1, H2}; }

  /// Fast equality: size + double hash, for any two views. Sound up to
  /// hash collision; use deepEquals for an exact answer.
  friend bool operator==(const View &L, const View &R) {
    return L.Total == R.Total && L.H1 == R.H1 && L.H2 == R.H2;
  }
  friend bool operator!=(const View &L, const View &R) { return !(L == R); }

  /// Exact structural equality (full scan) of two materialised views.
  bool deepEquals(const View &Other) const {
    assert(Materialised && Other.Materialised && "needs materialised views");
    return Entries == Other.Entries;
  }

  /// Renders up to \p MaxEntries entries of a materialised view.
  std::string str(size_t MaxEntries = 16) const;

  /// Describes the difference between two materialised views (entries
  /// only in L, only in R); used to produce violation reports.
  static std::string diff(const View &L, const View &R, size_t MaxEntries = 8);

private:
  std::map<ViewEntry, size_t> Entries;
  size_t Total = 0;
  uint64_t H1 = 0;
  uint64_t H2 = 0;
  bool Materialised = true;
};

} // namespace vyrd

#endif // VYRD_VIEW_H
