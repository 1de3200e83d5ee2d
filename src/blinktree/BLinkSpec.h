//===- BLinkSpec.h - Atomic spec + replayer for the B-link tree -*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specification (an atomic ordered map key -> versioned bytes) and
/// replayer for the B-link tree. viewI follows Sec. 7.2.4: the sorted list
/// of (key, data) pairs with version numbers obtained by a left-to-right
/// traversal of the leaf chain, with the indexing structure abstracted
/// away — maintained incrementally by diffing each rewritten leaf and
/// tracking data-node contents.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_BLINKTREE_BLINKSPEC_H
#define VYRD_BLINKTREE_BLINKSPEC_H

#include "blinktree/BLinkTree.h"
#include "vyrd/Replayer.h"
#include "vyrd/Spec.h"

#include <map>
#include <unordered_map>

namespace vyrd {
namespace blinktree {

/// Specification state: key -> versionedValue(version, bytes).
class BLinkSpec : public Spec {
public:
  BLinkSpec();

  bool isObserver(Name Method) const override;
  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &ViewS) override;
  bool returnAllowed(Name Method, const ValueList &Args,
                     const Value &Ret) const override;
  void buildView(View &Out) const override;
  bool saveState(ByteWriter &W) const override;
  bool loadState(ByteReader &R) override;

private:
  BltVocab V;
  std::map<int64_t, Value> M;
};

/// Shadow state: leaf nodes (from `blt.node` records) and data nodes
/// (from `blt.data` records); anchored at the first leaf handle.
class BLinkReplayer : public Replayer {
public:
  explicit BLinkReplayer(uint64_t FirstLeafHandle);

  void applyUpdate(const Action &A, View &ViewI) override;
  void buildView(View &Out) const override;
  bool saveState(ByteWriter &W) const override;
  bool loadState(ByteReader &R) override;

private:
  /// The view value currently contributed for a (leaf entry) pair.
  const Value &entryValue(uint64_t DataH) const;

  BltVocab V;
  uint64_t FirstLeaf;
  /// Leaf images (non-leaf node records are ignored: the indexing
  /// structure is abstracted away).
  std::unordered_map<uint64_t, BNode> Leaves;
  /// Decodes each `blt.node` record, reusing a replaced image's buffer.
  BNode Incoming;
  /// Data handle -> versionedValue of its last `blt.data` record.
  std::unordered_map<uint64_t, Value> DataNodes;
  /// Data handle -> number of live leaf entries referencing it (the
  /// duplicated-data-nodes bug makes this exceed 1 across keys).
  std::unordered_map<uint64_t, std::vector<int64_t>> DataRefs;
};

} // namespace blinktree
} // namespace vyrd

#endif // VYRD_BLINKTREE_BLINKSPEC_H
