//===- BNode.cpp - B-link tree node representation -------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "blinktree/BNode.h"

#include <cassert>

using namespace vyrd;
using namespace vyrd::blinktree;

size_t BNode::lowerBound(int64_t K) const {
  size_t Lo = 0, Hi = Entries.size();
  while (Lo < Hi) {
    size_t Mid = (Lo + Hi) / 2;
    if (Entries[Mid].Key < K)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

size_t BNode::findKey(int64_t K) const {
  size_t I = lowerBound(K);
  if (I < Entries.size() && Entries[I].Key == K)
    return I;
  return npos;
}

uint64_t BNode::route(int64_t K) const {
  assert(!IsLeaf && "routing in a leaf");
  assert(!Entries.empty() && "routing in an empty inner node");
  size_t I = lowerBound(K);
  // Entry I has Key >= K; the covering child is the one before it, except
  // that keys below the first separator go to the leftmost child.
  if (I < Entries.size() && Entries[I].Key == K)
    return Entries[I].Handle;
  return Entries[I == 0 ? 0 : I - 1].Handle;
}

Bytes BNode::serialize() const {
  ByteWriter W;
  uint8_t Flags = (IsLeaf ? 1 : 0) | (Dead ? 2 : 0);
  W.u8(Flags);
  W.u8(Level);
  W.svarint(HighKey);
  W.varint(Right);
  W.varint(Entries.size());
  for (const BEntry &E : Entries) {
    W.svarint(E.Key);
    W.varint(E.Handle);
  }
  return W.buffer();
}

bool BNode::deserialize(std::span<const uint8_t> B, BNode &Out) {
  ByteReader R(B.data(), B.size());
  uint8_t Flags = R.u8();
  Out.IsLeaf = (Flags & 1) != 0;
  Out.Dead = (Flags & 2) != 0;
  Out.Level = R.u8();
  Out.HighKey = R.svarint();
  Out.Right = R.varint();
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 16))
    return false;
  Out.Entries.clear();
  Out.Entries.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    BEntry E;
    E.Key = R.svarint();
    E.Handle = R.varint();
    Out.Entries.push_back(E);
  }
  return R.ok();
}

Bytes BData::serialize() const {
  ByteWriter W;
  W.varint(Version);
  W.varint(Data.size());
  W.bytes(Data.data(), Data.size());
  return W.buffer();
}

bool BData::deserialize(std::span<const uint8_t> B, BData &Out) {
  ByteReader R(B.data(), B.size());
  Out.Version = R.varint();
  uint64_t N = R.varint();
  if (!R.ok() || N > (1u << 20))
    return false;
  Out.Data.resize(N);
  if (N && !R.bytes(Out.Data.data(), N))
    return false;
  return R.ok();
}

Value vyrd::blinktree::versionedValue(uint64_t Version,
                                     std::span<const uint8_t> Data) {
  // Small payloads are assembled on the stack, so the Value's own blob is
  // the only allocation.
  uint8_t Small[64];
  Bytes Large;
  size_t Size = 8 + Data.size();
  uint8_t *Out = Small;
  if (Size > sizeof(Small)) {
    Large.resize(Size);
    Out = Large.data();
  }
  for (unsigned I = 0; I < 8; ++I)
    Out[I] = static_cast<uint8_t>(Version >> (8 * I));
  std::copy(Data.begin(), Data.end(), Out + 8);
  return bytesValue(Out, Size);
}

uint64_t vyrd::blinktree::versionOf(const Value &V) {
  std::span<const uint8_t> B = V.asBytes();
  assert(B.size() >= 8 && "not a versioned value");
  uint64_t Version = 0;
  for (unsigned I = 0; I < 8; ++I)
    Version |= static_cast<uint64_t>(B[I]) << (8 * I);
  return Version;
}
