//===- CacheSpec.h - Atomic spec + replayer for Cache+ChunkManager -*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specification and replayer for the combined Cache + Chunk Manager
/// system (Sec. 7.2.1). The abstract state is a map handle -> bytes; Flush
/// and Evict are no-op mutators. viewI is extracted exactly as the paper
/// describes: "for each handle, if there exists a cache entry associated
/// with handle, the byte-array is taken from the cache entry, otherwise it
/// is taken from Chunk Manager". The replayer also evaluates the two
/// runtime invariants of Sec. 7.2.1 at every commit.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_CACHE_CACHESPEC_H
#define VYRD_CACHE_CACHESPEC_H

#include "cache/BoxCache.h"
#include "vyrd/Replayer.h"
#include "vyrd/Spec.h"

#include <map>
#include <set>

namespace vyrd {
namespace cache {

/// Specification state: the abstract store.
///
/// Two modes:
/// * **fixed** — constructed with the pre-allocated handle universe; every
///   handle contributes a view entry (empty contents included). The mode
///   used for the paper's Cache experiments.
/// * **dynamic** — handles register themselves on first use (for clients
///   that allocate blocks at runtime, e.g. the B-link tree running over a
///   verified cache). Only handles with non-empty contents contribute view
///   entries, so both sides add an entry at the same commit regardless of
///   when each first learned of the handle.
class CacheSpec : public Spec {
public:
  /// Fixed mode: \p Handles pre-allocated chunk handles (the shared
  /// initial state of all test cases); each starts with empty contents.
  explicit CacheSpec(const std::vector<uint64_t> &Handles);
  /// Dynamic mode.
  CacheSpec();

  bool isObserver(Name Method) const override;
  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &ViewS) override;
  bool returnAllowed(Name Method, const ValueList &Args,
                     const Value &Ret) const override;
  void buildView(View &Out) const override;
  bool saveState(ByteWriter &W) const override;
  bool loadState(ByteReader &R) override;

  const Value *contents(uint64_t H) const;

private:
  /// Whether \p B contributes a view entry in the current mode.
  bool viewVisible(const Value &B) const {
    return !Dynamic || !B.asBytes().empty();
  }

  CacheVocab V;
  bool Dynamic;
  /// Handle -> the bytes Value of the write that set it.
  std::map<uint64_t, Value> Store;
};

/// Shadow state: entry buffers, clean/dirty membership, Chunk Manager
/// contents; maintains viewI and the Sec. 7.2.1 invariants incrementally.
class CacheReplayer : public Replayer {
public:
  /// Fixed mode (see CacheSpec).
  explicit CacheReplayer(const std::vector<uint64_t> &Handles);
  /// Dynamic mode.
  CacheReplayer();

  void applyUpdate(const Action &A, View &ViewI) override;
  void buildView(View &Out) const override;
  bool checkInvariants(std::string &Message) const override;
  bool saveState(ByteWriter &W) const override;
  bool loadState(ByteReader &R) override;

private:
  struct HandleShadow {
    Value Cm = bytesValue(nullptr, 0);    // Chunk Manager contents
    Value Entry = bytesValue(nullptr, 0); // cache entry (valid if HasEntry)
    bool HasEntry = false;
    bool InClean = false;
    bool InDirty = false;
  };

  /// The bytes an application currently observes for \p S.
  static const Value &visible(const HandleShadow &S) {
    return (S.InClean || S.InDirty) ? S.Entry : S.Cm;
  }
  void refreshInvariants(uint64_t H, const HandleShadow &S);
  bool viewVisible(const Value &B) const {
    return !Dynamic || !B.asBytes().empty();
  }

  CacheVocab V;
  bool Dynamic;
  std::map<uint64_t, HandleShadow> Handles;
  /// Invariant (i) violations: clean handles whose entry != CM bytes.
  std::set<uint64_t> CleanMismatch;
  /// Invariant (ii) violations: handles on both lists.
  std::set<uint64_t> BothLists;
};

} // namespace cache
} // namespace vyrd

#endif // VYRD_CACHE_CACHESPEC_H
