//===- Value.h - Tagged union value used throughout VYRD -------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines vyrd::Value, the small dynamically-typed value that carries method
/// arguments, return values, logged shared-variable contents, and view
/// entries. Keeping one value type everywhere lets the refinement checker be
/// generic over all verified data structures.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_VALUE_H
#define VYRD_VALUE_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace vyrd {

/// Discriminator for the alternatives a Value can hold.
enum class ValueKind : uint8_t {
  VK_Null = 0,
  VK_Bool = 1,
  VK_Int = 2,
  VK_Str = 3,
  VK_Bytes = 4,
};

/// A small tagged union: null, bool, 64-bit int, string, or byte array.
///
/// Values are ordered (lexicographically within a kind, by kind across
/// kinds) so they can serve as keys in canonical views, and hashable so view
/// hashes can be maintained incrementally.
class Value {
public:
  using Bytes = std::vector<uint8_t>;

  Value() : Data(std::monostate{}) {}
  Value(bool B) : Data(B) {}
  Value(int64_t I) : Data(I) {}
  Value(int I) : Data(static_cast<int64_t>(I)) {}
  Value(unsigned I) : Data(static_cast<int64_t>(I)) {}
  Value(uint64_t I) : Data(static_cast<int64_t>(I)) {}
  Value(std::string S) : Data(std::move(S)) {}
  Value(const char *S) : Data(std::string(S)) {}
  Value(Bytes B) : Data(std::move(B)) {}

  ValueKind kind() const {
    return static_cast<ValueKind>(Data.index());
  }

  bool isNull() const { return kind() == ValueKind::VK_Null; }
  bool isBool() const { return kind() == ValueKind::VK_Bool; }
  bool isInt() const { return kind() == ValueKind::VK_Int; }
  bool isStr() const { return kind() == ValueKind::VK_Str; }
  bool isBytes() const { return kind() == ValueKind::VK_Bytes; }

  /// Accessors assert that the stored kind matches.
  bool asBool() const;
  int64_t asInt() const;
  const std::string &asStr() const;
  const Bytes &asBytes() const;

  /// Stable 64-bit hash of the value (kind-tagged, content-based).
  uint64_t hash() const;

  /// Renders the value for diagnostics, e.g. `int:42`, `bytes[16]:a1b2..`.
  std::string str() const;

  friend bool operator==(const Value &L, const Value &R) {
    return L.Data == R.Data;
  }
  friend bool operator!=(const Value &L, const Value &R) {
    return !(L == R);
  }
  friend bool operator<(const Value &L, const Value &R);

private:
  std::variant<std::monostate, bool, int64_t, std::string, Bytes> Data;
};

/// List-of-values used for method argument vectors and replay payloads.
///
/// Every Call/ReplayOp record carries one of these, so it sits on the
/// logging and checking hot paths. Unlike std::vector, the first
/// InlineCapacity values are stored inline — nearly all method signatures
/// in the verified programs take 0–2 arguments, so the common case never
/// touches the heap. Larger lists spill to a heap array transparently.
///
/// The API is the subset of std::vector the codebase uses; elements are
/// always default-constructed Values until overwritten, which lets
/// push_back/clear recycle storage (including a kept heap buffer) instead
/// of churning allocations.
class ValueList {
public:
  using value_type = Value;
  using iterator = Value *;
  using const_iterator = const Value *;

  /// Values stored without heap allocation. Two covers nearly every
  /// method signature (see bench/bench_checker_hotpath's alloc table).
  static constexpr size_t InlineCapacity = 2;

  ValueList() = default;
  ValueList(std::initializer_list<Value> Init) {
    reserve(Init.size());
    for (const Value &V : Init)
      push_back(V);
  }
  ValueList(const ValueList &O) { *this = O; }
  ValueList(ValueList &&O) noexcept { *this = std::move(O); }

  ValueList &operator=(const ValueList &O) {
    if (this == &O)
      return *this;
    reserve(O.Count);
    Value *D = data();
    const Value *S = O.data();
    for (uint32_t I = 0; I < O.Count; ++I)
      D[I] = S[I];
    for (uint32_t I = O.Count; I < Count; ++I)
      D[I] = Value();
    Count = O.Count;
    return *this;
  }

  ValueList &operator=(ValueList &&O) noexcept {
    if (this == &O)
      return *this;
    if (O.Heap) {
      // Adopt the spilled buffer wholesale: O(1), no element moves. Our
      // own heap buffer (if any) is released by the assignment; inline
      // payloads still in use are released explicitly.
      if (!Heap)
        for (uint32_t I = 0; I < Count; ++I)
          InlineElems[I] = Value();
      Heap = std::move(O.Heap);
      Cap = O.Cap;
      Count = O.Count;
    } else {
      // O is inline; keep our storage (possibly a recycled heap buffer)
      // and move the few elements across.
      Value *D = data();
      for (uint32_t I = 0; I < O.Count; ++I)
        D[I] = std::move(O.InlineElems[I]);
      for (uint32_t I = O.Count; I < Count; ++I)
        D[I] = Value();
      Count = O.Count;
    }
    O.Cap = InlineCapacity;
    O.Count = 0;
    return *this;
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  size_t capacity() const { return Cap; }
  /// Whether the elements live in the inline slots (no heap buffer).
  bool inlined() const { return !Heap; }

  Value &operator[](size_t I) { return data()[I]; }
  const Value &operator[](size_t I) const { return data()[I]; }
  Value &front() { return data()[0]; }
  const Value &front() const { return data()[0]; }
  Value &back() { return data()[Count - 1]; }
  const Value &back() const { return data()[Count - 1]; }

  iterator begin() { return data(); }
  iterator end() { return data() + Count; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + Count; }

  /// Empties the list. Storage (inline slots and any heap buffer) is
  /// kept; element payloads are released.
  void clear() {
    Value *D = data();
    for (uint32_t I = 0; I < Count; ++I)
      D[I] = Value();
    Count = 0;
  }

  void reserve(size_t N) {
    if (N > Cap)
      grow(N);
  }

  void push_back(const Value &V) {
    if (Count == Cap)
      grow(Count + 1);
    data()[Count++] = V;
  }
  void push_back(Value &&V) {
    if (Count == Cap)
      grow(Count + 1);
    data()[Count++] = std::move(V);
  }
  template <typename... ArgTs> Value &emplace_back(ArgTs &&...Args) {
    push_back(Value(std::forward<ArgTs>(Args)...));
    return back();
  }
  void pop_back() { data()[--Count] = Value(); }

  friend bool operator==(const ValueList &L, const ValueList &R) {
    if (L.Count != R.Count)
      return false;
    for (uint32_t I = 0; I < L.Count; ++I)
      if (L[I] != R[I])
        return false;
    return true;
  }
  friend bool operator!=(const ValueList &L, const ValueList &R) {
    return !(L == R);
  }

private:
  Value *data() { return Heap ? Heap.get() : InlineElems; }
  const Value *data() const { return Heap ? Heap.get() : InlineElems; }
  void grow(size_t MinCap);

  Value InlineElems[InlineCapacity];
  std::unique_ptr<Value[]> Heap;
  uint32_t Count = 0;
  uint32_t Cap = InlineCapacity;
};

/// Builds a Value holding the given raw bytes.
Value bytesValue(const void *Data, size_t Size);

/// Escapes \p S for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters). Shared by every JSON renderer in the
/// codebase (reports, telemetry, monitor protocol, forensic bundles).
std::string jsonEscape(const std::string &S);

} // namespace vyrd

#endif // VYRD_VALUE_H
