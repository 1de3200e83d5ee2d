//===- CacheSpec.cpp - Atomic spec + replayer for Cache+ChunkManager ------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache/CacheSpec.h"

#include "vyrd/Serialize.h"

#include <algorithm>
#include <cassert>

using namespace vyrd;
using namespace vyrd::cache;

//===----------------------------------------------------------------------===//
// CacheSpec
//===----------------------------------------------------------------------===//

CacheSpec::CacheSpec(const std::vector<uint64_t> &Handles)
    : V(CacheVocab::get()), Dynamic(false) {
  for (uint64_t H : Handles)
    Store.emplace(H, Bytes());
}

CacheSpec::CacheSpec() : V(CacheVocab::get()), Dynamic(true) {}

bool CacheSpec::isObserver(Name Method) const { return Method == V.Read; }

bool CacheSpec::applyMutator(Name Method, const ValueList &Args,
                             const Value &Ret, View &ViewS) {
  if (Method == V.Write) {
    if (Args.size() != 2 || !Args[0].isInt() || !Args[1].isBytes())
      return false;
    uint64_t Hd = static_cast<uint64_t>(Args[0].asInt());
    auto It = Store.find(Hd);
    if (It == Store.end()) {
      if (!Dynamic)
        return false;
      It = Store.emplace(Hd, Bytes()).first; // first use registers
    }
    if (viewVisible(It->second))
      ViewS.remove(Args[0], Value(It->second));
    std::span<const uint8_t> B = Args[1].asBytes();
    It->second.assign(B.begin(), B.end());
    if (viewVisible(It->second))
      ViewS.add(Args[0], Value(It->second));
    return Ret.isBool() && Ret.asBool();
  }
  if (Method == V.Flush || Method == V.Evict) {
    // Maintenance operations: no abstract state change; any count is fine.
    return Ret.isInt();
  }
  if (Method == V.Revoke) {
    // Single-entry write-back: also a no-op on the abstract store.
    return Ret.isBool();
  }
  return false;
}

bool CacheSpec::returnAllowed(Name Method, const ValueList &Args,
                              const Value &Ret) const {
  if (Method != V.Read || Args.size() != 1 || !Args[0].isInt())
    return false;
  auto It = Store.find(static_cast<uint64_t>(Args[0].asInt()));
  if (It == Store.end()) {
    // Fixed mode: unknown handle reads return null. Dynamic mode: a
    // handle the spec has not seen written is indistinguishable from an
    // allocated-but-unwritten chunk (reads as empty) or an unallocated
    // one (reads as null); accept either.
    if (!Dynamic)
      return Ret.isNull();
    return Ret.isNull() || (Ret.isBytes() && Ret.asBytes().empty());
  }
  if (Dynamic && It->second.empty() && Ret.isNull())
    return true;
  return Ret.isBytes() && std::ranges::equal(Ret.asBytes(), It->second);
}

void CacheSpec::buildView(View &Out) const {
  Out.clear();
  for (const auto &[H, B] : Store)
    if (viewVisible(B))
      Out.add(Value(static_cast<int64_t>(H)), Value(B));
}

const Bytes *CacheSpec::contents(uint64_t H) const {
  auto It = Store.find(H);
  return It == Store.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// CacheReplayer
//===----------------------------------------------------------------------===//

CacheReplayer::CacheReplayer(const std::vector<uint64_t> &Handles)
    : V(CacheVocab::get()), Dynamic(false) {
  for (uint64_t H : Handles)
    this->Handles.emplace(H, HandleShadow());
}

CacheReplayer::CacheReplayer() : V(CacheVocab::get()), Dynamic(true) {}

void CacheReplayer::refreshInvariants(uint64_t H, const HandleShadow &S) {
  // (i) a clean entry's bytes must match the Chunk Manager's.
  if (S.InClean && S.HasEntry && S.Entry != S.Cm)
    CleanMismatch.insert(H);
  else
    CleanMismatch.erase(H);
  // (ii) an entry must not be on both lists.
  if (S.InClean && S.InDirty)
    BothLists.insert(H);
  else
    BothLists.erase(H);
}

void CacheReplayer::mutate(uint64_t H, View &ViewI,
                           const std::function<void(HandleShadow &)> &Fn) {
  auto It = Handles.find(H);
  if (It == Handles.end()) {
    assert(Dynamic && "replay op on unknown handle (fixed mode)");
    It = Handles.emplace(H, HandleShadow()).first;
  }
  HandleShadow &S = It->second;
  Bytes Before = visible(S);
  Fn(S);
  const Bytes &After = visible(S);
  if (Before != After) {
    if (viewVisible(Before))
      ViewI.remove(Value(static_cast<int64_t>(H)), Value(Before));
    if (viewVisible(After))
      ViewI.add(Value(static_cast<int64_t>(H)), Value(After));
  }
  refreshInvariants(H, S);
}

void CacheReplayer::applyUpdate(const Action &A, View &ViewI) {
  assert(A.Kind == ActionKind::AK_ReplayOp &&
         "cache logs coarse-grained replay ops only");
  assert(!A.Args.empty() && A.Args[0].isInt());
  uint64_t H = static_cast<uint64_t>(A.Args[0].asInt());

  if (A.Var == V.OpNewEntry) {
    mutate(H, ViewI, [](HandleShadow &S) {
      S.HasEntry = true;
      S.Entry.clear();
    });
  } else if (A.Var == V.OpCopy) {
    assert(A.Args.size() == 2 && A.Args[1].isBytes());
    std::span<const uint8_t> B = A.Args[1].asBytes();
    mutate(H, ViewI,
           [&](HandleShadow &S) { S.Entry.assign(B.begin(), B.end()); });
  } else if (A.Var == V.OpAddClean) {
    mutate(H, ViewI, [](HandleShadow &S) { S.InClean = true; });
  } else if (A.Var == V.OpAddDirty) {
    mutate(H, ViewI, [](HandleShadow &S) { S.InDirty = true; });
  } else if (A.Var == V.OpRemoveClean) {
    mutate(H, ViewI, [](HandleShadow &S) { S.InClean = false; });
  } else if (A.Var == V.OpRemoveDirty) {
    mutate(H, ViewI, [](HandleShadow &S) { S.InDirty = false; });
  } else if (A.Var == V.OpCmWrite) {
    assert(A.Args.size() == 2 && A.Args[1].isBytes());
    std::span<const uint8_t> B = A.Args[1].asBytes();
    mutate(H, ViewI, [&](HandleShadow &S) { S.Cm.assign(B.begin(), B.end()); });
  } else {
    assert(false && "unknown cache replay op");
  }
}

void CacheReplayer::buildView(View &Out) const {
  Out.clear();
  for (const auto &[H, S] : Handles)
    if (viewVisible(visible(S)))
      Out.add(Value(static_cast<int64_t>(H)), Value(visible(S)));
}

bool CacheReplayer::checkInvariants(std::string &Message) const {
  if (!CleanMismatch.empty()) {
    uint64_t H = *CleanMismatch.begin();
    Message = "cache invariant (i) violated: clean entry for handle " +
              std::to_string(H) +
              " differs from the Chunk Manager contents (" +
              std::to_string(CleanMismatch.size()) + " handle(s) affected)";
    return false;
  }
  if (!BothLists.empty()) {
    Message = "cache invariant (ii) violated: handle " +
              std::to_string(*BothLists.begin()) +
              " is on both the clean and dirty lists";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Snapshot support
//===----------------------------------------------------------------------===//

namespace {

void saveBytes(ByteWriter &W, const Bytes &B) {
  W.varint(B.size());
  W.bytes(B.data(), B.size());
}

bool loadBytes(ByteReader &R, Bytes &B) {
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 24))
    return false;
  B.resize(N);
  return N == 0 || R.bytes(B.data(), N);
}

void saveHandleSet(ByteWriter &W, const std::set<uint64_t> &S) {
  W.varint(S.size());
  for (uint64_t H : S)
    W.varint(H);
}

bool loadHandleSet(ByteReader &R, std::set<uint64_t> &S) {
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 24))
    return false;
  S.clear();
  for (uint64_t I = 0; I < N; ++I)
    S.insert(R.varint());
  return R.ok();
}

} // namespace

bool CacheSpec::saveState(ByteWriter &W) const {
  // The mode is part of the state: it decides which entries are
  // view-visible, so a resumed checker must agree with the recorder.
  W.u8(Dynamic ? 1 : 0);
  W.varint(Store.size());
  for (const auto &[H, B] : Store) {
    W.varint(H);
    saveBytes(W, B);
  }
  return true;
}

bool CacheSpec::loadState(ByteReader &R) {
  Dynamic = R.u8() != 0;
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 24))
    return false;
  Store.clear();
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t H = R.varint();
    Bytes B;
    if (!loadBytes(R, B))
      return false;
    Store.emplace(H, std::move(B));
  }
  return R.ok();
}

bool CacheReplayer::saveState(ByteWriter &W) const {
  W.u8(Dynamic ? 1 : 0);
  W.varint(Handles.size());
  for (const auto &[H, S] : Handles) {
    W.varint(H);
    saveBytes(W, S.Cm);
    saveBytes(W, S.Entry);
    W.u8((S.HasEntry ? 1 : 0) | (S.InClean ? 2 : 0) | (S.InDirty ? 4 : 0));
  }
  // The invariant-violation sets are derivable from Handles but cheap to
  // carry; persisting them keeps restore O(state) with no recomputation.
  saveHandleSet(W, CleanMismatch);
  saveHandleSet(W, BothLists);
  return true;
}

bool CacheReplayer::loadState(ByteReader &R) {
  Dynamic = R.u8() != 0;
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 24))
    return false;
  Handles.clear();
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t H = R.varint();
    HandleShadow S;
    if (!loadBytes(R, S.Cm) || !loadBytes(R, S.Entry))
      return false;
    uint8_t Flags = R.u8();
    S.HasEntry = Flags & 1;
    S.InClean = Flags & 2;
    S.InDirty = Flags & 4;
    Handles.emplace(H, std::move(S));
  }
  return loadHandleSet(R, CleanMismatch) && loadHandleSet(R, BothLists) &&
         R.ok();
}
