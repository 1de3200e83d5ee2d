//===- CacheSpec.cpp - Atomic spec + replayer for Cache+ChunkManager ------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cache/CacheSpec.h"

#include "vyrd/Serialize.h"

#include <cassert>

using namespace vyrd;
using namespace vyrd::cache;

//===----------------------------------------------------------------------===//
// CacheSpec
//===----------------------------------------------------------------------===//

CacheSpec::CacheSpec(const std::vector<uint64_t> &Handles)
    : V(CacheVocab::get()), Dynamic(false) {
  for (uint64_t H : Handles)
    Store.emplace(H, bytesValue(nullptr, 0));
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
      // First use registers.
      It = Store.emplace(Hd, bytesValue(nullptr, 0)).first;
    }
    if (viewVisible(It->second))
      ViewS.remove(Args[0], It->second);
    It->second = Args[1];
    if (viewVisible(It->second))
      ViewS.add(Args[0], It->second);
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
  if (Dynamic && It->second.asBytes().empty() && Ret.isNull())
    return true;
  return Ret == It->second;
}

void CacheSpec::buildView(View &Out) const {
  Out.clear();
  for (const auto &[H, B] : Store)
    if (viewVisible(B))
      Out.add(Value(static_cast<int64_t>(H)), B);
}

const Value *CacheSpec::contents(uint64_t H) const {
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

void CacheReplayer::applyUpdate(const Action &A, View &ViewI) {
  assert(A.Kind == ActionKind::AK_ReplayOp &&
         "cache logs coarse-grained replay ops only");
  assert(!A.Args.empty() && A.Args[0].isInt());
  uint64_t H = static_cast<uint64_t>(A.Args[0].asInt());
  auto It = Handles.find(H);
  if (It == Handles.end()) {
    assert(Dynamic && "replay op on unknown handle (fixed mode)");
    It = Handles.emplace(H, HandleShadow()).first;
  }
  HandleShadow &S = It->second;
  Value Before = visible(S);

  if (A.Var == V.OpNewEntry) {
    S.HasEntry = true;
    S.Entry = bytesValue(nullptr, 0);
  } else if (A.Var == V.OpCopy) {
    assert(A.Args.size() == 2 && A.Args[1].isBytes());
    S.Entry = A.Args[1];
  } else if (A.Var == V.OpAddClean) {
    S.InClean = true;
  } else if (A.Var == V.OpAddDirty) {
    S.InDirty = true;
  } else if (A.Var == V.OpRemoveClean) {
    S.InClean = false;
  } else if (A.Var == V.OpRemoveDirty) {
    S.InDirty = false;
  } else if (A.Var == V.OpCmWrite) {
    assert(A.Args.size() == 2 && A.Args[1].isBytes());
    S.Cm = A.Args[1];
  } else {
    assert(false && "unknown cache replay op");
  }

  const Value &After = visible(S);
  if (Before != After) {
    if (viewVisible(Before))
      ViewI.remove(A.Args[0], Before);
    if (viewVisible(After))
      ViewI.add(A.Args[0], After);
  }
  refreshInvariants(H, S);
}

void CacheReplayer::buildView(View &Out) const {
  Out.clear();
  for (const auto &[H, S] : Handles)
    if (viewVisible(visible(S)))
      Out.add(Value(static_cast<int64_t>(H)), visible(S));
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

void saveBytes(ByteWriter &W, const Value &V) {
  std::span<const uint8_t> B = V.asBytes();
  W.varint(B.size());
  W.bytes(B.data(), B.size());
}

bool loadBytes(ByteReader &R, Value &V) {
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 24))
    return false;
  std::span<const uint8_t> B = R.take(N);
  V = bytesValue(B.data(), B.size());
  return R.ok();
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
    Value B;
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
