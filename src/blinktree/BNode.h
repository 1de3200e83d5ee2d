//===- BNode.h - B-link tree node representation ----------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In Boxwood every tree node is a byte array stored behind the Cache
/// (Sec. 7.2). BNode is the in-memory form plus its (de)serialization;
/// nodes are read and written atomically as whole chunks, which is what
/// makes the lock-free B-link descent sound.
///
/// Leaf nodes map keys to *data node* handles; data nodes carry the value
/// bytes and a version number (bumped on each overwrite), matching the
/// viewI definition of Sec. 7.2.4 ("the sorted list of all the (key, data)
/// pairs in the tree, along with their version numbers"). Inner nodes map
/// separator keys to child handles: entry (K, C) routes keys >= K (and
/// below the next separator) to child C.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_BLINKTREE_BNODE_H
#define VYRD_BLINKTREE_BNODE_H

#include "chunk/ChunkManager.h"
#include "vyrd/Serialize.h"

#include <cstdint>
#include <span>
#include <vector>

namespace vyrd {
namespace blinktree {

using chunk::Bytes;

/// One (key, handle) slot of a node.
struct BEntry {
  int64_t Key;
  uint64_t Handle;
};

/// In-memory node image.
struct BNode {
  bool IsLeaf = true;
  /// Set when the node has been merged away; descents that land here
  /// restart from the root.
  bool Dead = false;
  /// Height of the node: 0 for leaves, parents one above their children.
  uint8_t Level = 0;
  /// Exclusive upper bound of this node's key range; keys >= HighKey moved
  /// right. INT64_MAX on the rightmost node of a level.
  int64_t HighKey = INT64_MAX;
  /// Right sibling handle (B-link pointer); 0 when rightmost.
  uint64_t Right = 0;
  /// Sorted by Key. Leaf: key -> data node. Inner: separator -> child.
  std::vector<BEntry> Entries;

  /// Index of the first entry with Key >= \p K, or Entries.size().
  size_t lowerBound(int64_t K) const;
  /// Leaf: index of an entry with exactly \p K, or npos.
  size_t findKey(int64_t K) const;
  /// Inner: child covering \p K (last entry with Key <= K; entry 0 covers
  /// everything below its separator too, as the leftmost child).
  uint64_t route(int64_t K) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

  Bytes serialize() const;
  /// \returns false on malformed input.
  static bool deserialize(std::span<const uint8_t> B, BNode &Out);
};

/// Data node payload: value bytes plus a version number.
struct BData {
  uint64_t Version = 0;
  Bytes Data;

  Bytes serialize() const;
  static bool deserialize(std::span<const uint8_t> B, BData &Out);
};

/// Encodes (version, bytes) into the canonical view value (also the
/// Lookup return value): 8-byte little-endian version followed by the
/// data bytes.
Value versionedValue(uint64_t Version, std::span<const uint8_t> Data);
/// The version a versionedValue carries.
uint64_t versionOf(const Value &V);

} // namespace blinktree
} // namespace vyrd

#endif // VYRD_BLINKTREE_BNODE_H
