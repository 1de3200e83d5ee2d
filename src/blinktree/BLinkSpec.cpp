//===- BLinkSpec.cpp - Atomic spec + replayer for the B-link tree ---------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "blinktree/BLinkSpec.h"

#include <algorithm>
#include <cassert>

using namespace vyrd;
using namespace vyrd::blinktree;

//===----------------------------------------------------------------------===//
// BLinkSpec
//===----------------------------------------------------------------------===//

BLinkSpec::BLinkSpec() : V(BltVocab::get()) {}

bool BLinkSpec::isObserver(Name Method) const { return Method == V.Lookup; }

bool BLinkSpec::applyMutator(Name Method, const ValueList &Args,
                             const Value &Ret, View &ViewS) {
  if (Method == V.Compress) {
    // Compression must not modify the abstract contents.
    return Ret.isBool();
  }
  if (!Ret.isBool())
    return false;
  bool Success = Ret.asBool();

  if (Method == V.Insert) {
    if (Args.size() != 2 || !Args[0].isInt() || !Args[1].isBytes() ||
        !Success)
      return false; // insert always succeeds
    int64_t K = Args[0].asInt();
    std::span<const uint8_t> Data = Args[1].asBytes();
    auto It = M.find(K);
    if (It == M.end()) {
      It = M.emplace(K, versionedValue(1, Data)).first;
    } else {
      ViewS.remove(Args[0], It->second);
      It->second = versionedValue(versionOf(It->second) + 1, Data);
    }
    ViewS.add(Args[0], It->second);
    return true;
  }

  if (Method == V.Delete) {
    if (Args.size() != 1 || !Args[0].isInt())
      return false;
    auto It = M.find(Args[0].asInt());
    if (!Success)
      return It == M.end(); // failure iff the key is absent
    if (It == M.end())
      return false;
    ViewS.remove(Args[0], It->second);
    M.erase(It);
    return true;
  }

  return false;
}

bool BLinkSpec::returnAllowed(Name Method, const ValueList &Args,
                              const Value &Ret) const {
  if (Method != V.Lookup || Args.size() != 1 || !Args[0].isInt())
    return false;
  auto It = M.find(Args[0].asInt());
  if (It == M.end())
    return Ret.isNull();
  return Ret == It->second;
}

void BLinkSpec::buildView(View &Out) const {
  Out.clear();
  for (const auto &[K, D] : M)
    Out.add(Value(K), D);
}

//===----------------------------------------------------------------------===//
// BLinkReplayer
//===----------------------------------------------------------------------===//

BLinkReplayer::BLinkReplayer(uint64_t FirstLeafHandle)
    : V(BltVocab::get()), FirstLeaf(FirstLeafHandle) {}

const Value &BLinkReplayer::entryValue(uint64_t DataH) const {
  // A dangling reference contributes a null (a mismatch).
  static const Value Dangling;
  auto It = DataNodes.find(DataH);
  return It == DataNodes.end() ? Dangling : It->second;
}

void BLinkReplayer::applyUpdate(const Action &A, View &ViewI) {
  assert(A.Kind == ActionKind::AK_ReplayOp &&
         "B-link tree logs coarse-grained replay ops only");

  if (A.Var == V.OpRoot)
    return; // root identity is not part of the view

  if (A.Var == V.OpData) {
    assert(A.Args.size() == 3);
    uint64_t DH = static_cast<uint64_t>(A.Args[0].asInt());
    Value New = versionedValue(static_cast<uint64_t>(A.Args[1].asInt()),
                               A.Args[2].asBytes());
    // Update every live leaf entry referencing this data node.
    auto RefIt = DataRefs.find(DH);
    if (RefIt != DataRefs.end()) {
      const Value &Old = entryValue(DH);
      for (int64_t Key : RefIt->second) {
        ViewI.remove(Value(Key), Old);
        ViewI.add(Value(Key), New);
      }
    }
    DataNodes[DH] = std::move(New);
    return;
  }

  if (A.Var == V.OpNode) {
    assert(A.Args.size() == 2);
    uint64_t NH = static_cast<uint64_t>(A.Args[0].asInt());
    BNode &New = Incoming;
    bool Ok = BNode::deserialize(A.Args[1].asBytes(), New);
    assert(Ok && "malformed node record");
    (void)Ok;
    if (!New.IsLeaf)
      return; // the indexing structure is abstracted away

    auto It = Leaves.find(NH);
    const std::vector<BEntry> NoEntries;
    const std::vector<BEntry> &OldE =
        (It != Leaves.end() && !It->second.Dead) ? It->second.Entries
                                                 : NoEntries;
    const std::vector<BEntry> &NewE = New.Dead ? NoEntries : New.Entries;

    // Diff the old and new entry lists (both sorted by key).
    size_t I = 0, J = 0;
    auto RemoveRef = [&](const BEntry &E) {
      ViewI.remove(Value(E.Key), entryValue(E.Handle));
      auto &Refs = DataRefs[E.Handle];
      auto Pos = std::find(Refs.begin(), Refs.end(), E.Key);
      if (Pos != Refs.end())
        Refs.erase(Pos);
    };
    auto AddRef = [&](const BEntry &E) {
      ViewI.add(Value(E.Key), entryValue(E.Handle));
      DataRefs[E.Handle].push_back(E.Key);
    };
    while (I < OldE.size() || J < NewE.size()) {
      if (J == NewE.size() ||
          (I < OldE.size() && OldE[I].Key < NewE[J].Key)) {
        RemoveRef(OldE[I++]);
      } else if (I == OldE.size() || NewE[J].Key < OldE[I].Key) {
        AddRef(NewE[J++]);
      } else {
        if (OldE[I].Handle != NewE[J].Handle) {
          RemoveRef(OldE[I]);
          AddRef(NewE[J]);
        }
        ++I;
        ++J;
      }
    }

    // The swap hands the old image's entry buffer to the next record.
    if (It == Leaves.end())
      Leaves.emplace(NH, std::move(New));
    else
      std::swap(It->second, New);
    return;
  }

  assert(false && "unknown B-link replay op");
}

void BLinkReplayer::buildView(View &Out) const {
  Out.clear();
  // Left-to-right traversal of the leaf chain (Sec. 7.2.4), guarded
  // against cycles.
  std::unordered_map<uint64_t, bool> Visited;
  uint64_t H = FirstLeaf;
  while (H && !Visited[H]) {
    Visited[H] = true;
    auto It = Leaves.find(H);
    if (It == Leaves.end())
      break;
    const BNode &N = It->second;
    if (!N.Dead)
      for (const BEntry &E : N.Entries)
        Out.add(Value(E.Key), entryValue(E.Handle));
    H = N.Right;
  }
}

//===----------------------------------------------------------------------===//
// Snapshot support
//===----------------------------------------------------------------------===//

namespace {

/// A versionedValue as (version, byte count, bytes): the snapshot encoding
/// of a key's or a data node's contents.
void saveVersioned(ByteWriter &W, const Value &V) {
  std::span<const uint8_t> Data = V.asBytes().subspan(8);
  W.varint(versionOf(V));
  W.varint(Data.size());
  W.bytes(Data.data(), Data.size());
}

bool loadVersioned(ByteReader &R, Value &V) {
  uint64_t Version = R.varint();
  uint64_t Size = R.varint();
  if (!R.ok() || Size > (1u << 24))
    return false;
  V = versionedValue(Version, R.take(Size));
  return R.ok();
}

template <typename MapT>
std::vector<uint64_t> sortedKeys(const MapT &M) {
  std::vector<uint64_t> Keys;
  Keys.reserve(M.size());
  for (const auto &KV : M)
    Keys.push_back(KV.first);
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

} // namespace

bool BLinkSpec::saveState(ByteWriter &W) const {
  W.varint(M.size());
  for (const auto &[K, D] : M) {
    W.svarint(K);
    saveVersioned(W, D);
  }
  return true;
}

bool BLinkSpec::loadState(ByteReader &R) {
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 24))
    return false;
  M.clear();
  for (uint64_t I = 0; I < N; ++I) {
    int64_t K = R.svarint();
    Value D;
    if (!loadVersioned(R, D))
      return false;
    M.emplace(K, std::move(D));
  }
  return R.ok();
}

bool BLinkReplayer::saveState(ByteWriter &W) const {
  // Unordered storage, canonical blob: every map emits sorted by handle.
  W.varint(FirstLeaf);

  W.varint(Leaves.size());
  for (uint64_t H : sortedKeys(Leaves)) {
    W.varint(H);
    Bytes Img = Leaves.at(H).serialize();
    W.varint(Img.size());
    W.bytes(Img.data(), Img.size());
  }

  W.varint(DataNodes.size());
  for (uint64_t H : sortedKeys(DataNodes)) {
    W.varint(H);
    saveVersioned(W, DataNodes.at(H));
  }

  // DataRefs is semantically a multiset of keys per handle (only membership
  // counts), so entries sort and empty sets drop without changing behavior.
  size_t NonEmpty = 0;
  for (const auto &[H, Refs] : DataRefs)
    NonEmpty += !Refs.empty();
  W.varint(NonEmpty);
  for (uint64_t H : sortedKeys(DataRefs)) {
    std::vector<int64_t> Refs = DataRefs.at(H);
    if (Refs.empty())
      continue;
    std::sort(Refs.begin(), Refs.end());
    W.varint(H);
    W.varint(Refs.size());
    for (int64_t K : Refs)
      W.svarint(K);
  }
  return true;
}

bool BLinkReplayer::loadState(ByteReader &R) {
  FirstLeaf = R.varint();

  uint64_t NLeaves = R.varint();
  if (!R.ok() || NLeaves > (1u << 24))
    return false;
  Leaves.clear();
  for (uint64_t I = 0; I < NLeaves; ++I) {
    uint64_t H = R.varint();
    uint64_t Size = R.varint();
    if (!R.ok() || Size > (1u << 24))
      return false;
    Bytes Img(Size);
    if (Size && !R.bytes(Img.data(), Size))
      return false;
    BNode N;
    if (!BNode::deserialize(Img, N))
      return false;
    Leaves.emplace(H, std::move(N));
  }

  uint64_t NData = R.varint();
  if (!R.ok() || NData > (1u << 24))
    return false;
  DataNodes.clear();
  for (uint64_t I = 0; I < NData; ++I) {
    uint64_t H = R.varint();
    Value D;
    if (!loadVersioned(R, D))
      return false;
    DataNodes.emplace(H, std::move(D));
  }

  uint64_t NRefs = R.varint();
  if (!R.ok() || NRefs > (1u << 24))
    return false;
  DataRefs.clear();
  for (uint64_t I = 0; I < NRefs; ++I) {
    uint64_t H = R.varint();
    uint64_t Count = R.varint();
    if (!R.ok() || Count > (1u << 24))
      return false;
    std::vector<int64_t> Refs(Count);
    for (uint64_t J = 0; J < Count; ++J)
      Refs[J] = R.svarint();
    DataRefs.emplace(H, std::move(Refs));
  }
  return R.ok();
}
