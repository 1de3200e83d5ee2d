//===- Value.cpp - Tagged union value used throughout VYRD ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Value.h"

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>

using namespace vyrd;

Value::Value(ValueKind K, const void *Data, size_t Size)
    : Word(0), Tag(tag(K)) {
  if (!Size)
    return; // Empty payloads need no blob.
  if (Size > UINT32_MAX)
    throw std::length_error("vyrd::Value payload over 4 GiB");
  Blob *P = new (::operator new(sizeof(Blob) + Size))
      Blob(static_cast<uint32_t>(Size));
  std::memcpy(P->bytes(), Data, Size);
  Word = reinterpret_cast<uintptr_t>(P);
}

void Value::release(Blob *P) noexcept {
  // A sole owner frees without a read-modify-write: no other thread can
  // hold a reference to copy from. Otherwise the last decrement frees;
  // acq_rel orders every owner's reads of the bytes before the free.
  if (P->Refs.load(std::memory_order_acquire) != 1 &&
      P->Refs.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  P->~Blob();
  ::operator delete(P);
}

bool Value::asBool() const {
  assert(isBool() && "Value is not a bool");
  return Word != 0;
}

int64_t Value::asInt() const {
  assert(isInt() && "Value is not an int");
  return static_cast<int64_t>(Word);
}

std::string_view Value::asStr() const {
  assert(isStr() && "Value is not a string");
  std::span<const uint8_t> P = payload();
  return {reinterpret_cast<const char *>(P.data()), P.size()};
}

std::span<const uint8_t> Value::asBytes() const {
  assert(isBytes() && "Value is not a byte array");
  return payload();
}

/// 64-bit mixer (splitmix64 finalizer); good avalanche, cheap.
static uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

static uint64_t hashBytes(const void *Data, size_t Size, uint64_t Seed) {
  // FNV-1a over the bytes, then mixed. Not cryptographic; view hashing
  // layers a second independent accumulator on top (see View.cpp).
  const auto *P = static_cast<const uint8_t *>(Data);
  uint64_t H = 14695981039346656037ULL ^ Seed;
  for (size_t I = 0; I < Size; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL;
  }
  return mix64(H);
}

uint64_t Value::hash() const {
  uint64_t KindBits = Tag << 56;
  switch (kind()) {
  case ValueKind::VK_Null:
    return mix64(KindBits);
  case ValueKind::VK_Bool:
  case ValueKind::VK_Int:
    // Bool's word is 0/1, so XOR and OR agree for it.
    return mix64(KindBits ^ Word);
  case ValueKind::VK_Str:
  case ValueKind::VK_Bytes: {
    std::span<const uint8_t> P = payload();
    return hashBytes(P.data(), P.size(), KindBits | (isStr() ? 0x51 : 0x52));
  }
  }
  assert(false && "unknown ValueKind");
  return 0;
}

std::string Value::str() const {
  switch (kind()) {
  case ValueKind::VK_Null:
    return "null";
  case ValueKind::VK_Bool:
    return asBool() ? "true" : "false";
  case ValueKind::VK_Int:
    return std::to_string(asInt());
  case ValueKind::VK_Str: {
    std::string Out = "\"";
    Out += asStr();
    Out += '"';
    return Out;
  }
  case ValueKind::VK_Bytes: {
    std::span<const uint8_t> B = payload();
    std::string Out = "bytes[" + std::to_string(B.size()) + "]:";
    size_t Shown = B.size() < 8 ? B.size() : 8;
    char Buf[4];
    for (size_t I = 0; I < Shown; ++I) {
      std::snprintf(Buf, sizeof(Buf), "%02x", B[I]);
      Out += Buf;
    }
    if (Shown < B.size())
      Out += "..";
    return Out;
  }
  }
  assert(false && "unknown ValueKind");
  return "";
}

void ValueList::grow(size_t MinCap) {
  size_t NewCap = Cap;
  while (NewCap < MinCap)
    NewCap *= 2;
  auto NewHeap = std::make_unique<Value[]>(NewCap);
  Value *Old = data();
  for (uint32_t I = 0; I < Count; ++I)
    NewHeap[I] = std::move(Old[I]);
  Heap = std::move(NewHeap);
  Cap = static_cast<uint32_t>(NewCap);
}

namespace vyrd {

bool operator==(const Value &L, const Value &R) {
  if (L.Tag != R.Tag)
    return false;
  if (L.Word == R.Word)
    return true; // Same scalar, same shared blob, or both empty.
  if (L.kind() < ValueKind::VK_Str)
    return false;
  std::span<const uint8_t> A = L.payload(), B = R.payload();
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size()) == 0;
}

bool operator<(const Value &L, const Value &R) {
  if (L.Tag != R.Tag)
    return L.Tag < R.Tag;
  switch (L.kind()) {
  case ValueKind::VK_Null:
    return false;
  case ValueKind::VK_Bool:
    return L.Word < R.Word;
  case ValueKind::VK_Int:
    return static_cast<int64_t>(L.Word) < static_cast<int64_t>(R.Word);
  case ValueKind::VK_Str:
  case ValueKind::VK_Bytes: {
    // Lexicographic on unsigned bytes, a prefix before its extensions:
    // the order of std::string and std::vector<uint8_t>.
    std::span<const uint8_t> A = L.payload(), B = R.payload();
    size_t N = A.size() < B.size() ? A.size() : B.size();
    int C = N ? std::memcmp(A.data(), B.data(), N) : 0;
    return C < 0 || (C == 0 && A.size() < B.size());
  }
  }
  assert(false && "unknown ValueKind");
  return false;
}

Value bytesValue(const void *Data, size_t Size) {
  return Value(ValueKind::VK_Bytes, Data, Size);
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace vyrd
