//===- Value.cpp - Tagged union value used throughout VYRD ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Value.h"

#include <cassert>
#include <cstdio>

using namespace vyrd;

bool Value::asBool() const {
  assert(isBool() && "Value is not a bool");
  return std::get<bool>(Data);
}

int64_t Value::asInt() const {
  assert(isInt() && "Value is not an int");
  return std::get<int64_t>(Data);
}

const std::string &Value::asStr() const {
  assert(isStr() && "Value is not a string");
  return std::get<std::string>(Data);
}

const Value::Bytes &Value::asBytes() const {
  assert(isBytes() && "Value is not a byte array");
  return std::get<Bytes>(Data);
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
  uint64_t Tag = static_cast<uint64_t>(kind()) << 56;
  switch (kind()) {
  case ValueKind::VK_Null:
    return mix64(Tag);
  case ValueKind::VK_Bool:
    return mix64(Tag | (std::get<bool>(Data) ? 1 : 0));
  case ValueKind::VK_Int:
    return mix64(Tag ^ static_cast<uint64_t>(std::get<int64_t>(Data)));
  case ValueKind::VK_Str: {
    const std::string &S = std::get<std::string>(Data);
    return hashBytes(S.data(), S.size(), Tag | 0x51);
  }
  case ValueKind::VK_Bytes: {
    const Bytes &B = std::get<Bytes>(Data);
    return hashBytes(B.data(), B.size(), Tag | 0x52);
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
    return std::get<bool>(Data) ? "true" : "false";
  case ValueKind::VK_Int:
    return std::to_string(std::get<int64_t>(Data));
  case ValueKind::VK_Str:
    return "\"" + std::get<std::string>(Data) + "\"";
  case ValueKind::VK_Bytes: {
    const Bytes &B = std::get<Bytes>(Data);
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

bool operator<(const Value &L, const Value &R) { return L.Data < R.Data; }

Value bytesValue(const void *Data, size_t Size) {
  const auto *P = static_cast<const uint8_t *>(Data);
  return Value(Value::Bytes(P, P + Size));
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
