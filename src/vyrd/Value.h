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
/// A Value is 16 bytes: an 8-byte payload and a kind tag. Null, bool and
/// int64 are stored inline. A non-empty string or byte array lives in one
/// immutable, reference-counted heap blob that every copy of the Value
/// shares, so copying a record through the pipeline bumps a counter
/// instead of allocating.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_VALUE_H
#define VYRD_VALUE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
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

  Value() noexcept : Word(0), Tag(tag(ValueKind::VK_Null)) {}
  Value(bool B) noexcept : Word(B ? 1 : 0), Tag(tag(ValueKind::VK_Bool)) {}
  Value(int64_t I) noexcept
      : Word(static_cast<uint64_t>(I)), Tag(tag(ValueKind::VK_Int)) {}
  Value(int I) noexcept : Value(static_cast<int64_t>(I)) {}
  Value(unsigned I) noexcept : Value(static_cast<int64_t>(I)) {}
  Value(uint64_t I) noexcept : Value(static_cast<int64_t>(I)) {}
  Value(const std::string &S) : Value(ValueKind::VK_Str, S.data(), S.size()) {}
  Value(std::string_view S) : Value(ValueKind::VK_Str, S.data(), S.size()) {}
  Value(const char *S) : Value(std::string_view(S)) {}
  Value(const Bytes &B) : Value(ValueKind::VK_Bytes, B.data(), B.size()) {}

  /// A copy shares the payload blob; a move steals it.
  Value(const Value &O) noexcept : Word(O.Word), Tag(O.Tag) {
    if (Blob *P = heap())
      P->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  Value(Value &&O) noexcept : Word(O.Word), Tag(O.Tag) {
    O.Word = 0;
    O.Tag = tag(ValueKind::VK_Null);
  }
  Value &operator=(const Value &O) noexcept {
    Value(O).swap(*this);
    return *this;
  }
  Value &operator=(Value &&O) noexcept {
    Value(std::move(O)).swap(*this);
    return *this;
  }
  ~Value() {
    if (Blob *P = heap())
      release(P);
  }

  ValueKind kind() const { return static_cast<ValueKind>(Tag); }

  bool isNull() const { return kind() == ValueKind::VK_Null; }
  bool isBool() const { return kind() == ValueKind::VK_Bool; }
  bool isInt() const { return kind() == ValueKind::VK_Int; }
  bool isStr() const { return kind() == ValueKind::VK_Str; }
  bool isBytes() const { return kind() == ValueKind::VK_Bytes; }

  /// Accessors assert that the stored kind matches. The string and byte
  /// views point into the shared payload and stay valid while any Value
  /// holding it lives.
  bool asBool() const;
  int64_t asInt() const;
  std::string_view asStr() const;
  std::span<const uint8_t> asBytes() const;

  /// Stable 64-bit hash of the value (kind-tagged, content-based).
  uint64_t hash() const;

  /// Renders the value for diagnostics, e.g. `int:42`, `bytes[16]:a1b2..`.
  std::string str() const;

  friend bool operator==(const Value &L, const Value &R);
  friend bool operator!=(const Value &L, const Value &R) {
    return !(L == R);
  }
  friend bool operator<(const Value &L, const Value &R);

  friend Value bytesValue(const void *Data, size_t Size);
  friend class ValueList;

private:
  /// An immutable payload shared by every copy of a Value. The bytes
  /// follow the header in the same allocation.
  struct Blob {
    explicit Blob(uint32_t Size) : Refs(1), Size(Size) {}
    std::atomic<uint32_t> Refs;
    uint32_t Size;
    uint8_t *bytes() { return reinterpret_cast<uint8_t *>(this + 1); }
    const uint8_t *bytes() const {
      return reinterpret_cast<const uint8_t *>(this + 1);
    }
  };

  Value(ValueKind K, const void *Data, size_t Size);

  void swap(Value &O) noexcept {
    std::swap(Word, O.Word);
    std::swap(Tag, O.Tag);
  }

  /// The payload blob, or null for inline kinds and empty payloads.
  Blob *heap() const {
    return Tag >= tag(ValueKind::VK_Str) ? reinterpret_cast<Blob *>(Word)
                                         : nullptr;
  }
  /// Payload bytes of a string or byte array (empty without a blob).
  std::span<const uint8_t> payload() const {
    const Blob *P = heap();
    return P ? std::span<const uint8_t>(P->bytes(), P->Size)
             : std::span<const uint8_t>();
  }
  static void release(Blob *P) noexcept;

  /// Bool (0/1), Int (two's complement), the Blob address of Str and
  /// Bytes (zero when empty), and zero for Null.
  uint64_t Word;
  /// The ValueKind, widened to a full word so that a copy or move of a
  /// Value is two plain word moves.
  uint64_t Tag;

  static constexpr uint64_t tag(ValueKind K) {
    return static_cast<uint64_t>(K);
  }
};

static_assert(sizeof(Value) == 16, "Value must stay a 16-byte record");

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
  ValueList(ValueList &&O) noexcept
      : Heap(std::move(O.Heap)), Count(O.Count), Cap(O.Cap) {
    // Our inline slots start null. Swapping them with O's relocates O's
    // inline elements (or the nulls left in them after a spill) with no
    // branch per element, and leaves O's slots null.
    for (size_t I = 0; I < InlineCapacity; ++I)
      InlineElems[I].swap(O.InlineElems[I]);
    O.Count = 0;
    O.Cap = InlineCapacity;
  }

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
        clear();
      Heap = std::move(O.Heap);
      Cap = O.Cap;
    } else if (!Heap) {
      // Both inline: release our elements, then swap the (now null)
      // slots with O's, as the move constructor does.
      clear();
      for (size_t I = 0; I < InlineCapacity; ++I)
        InlineElems[I].swap(O.InlineElems[I]);
    } else {
      // O is inline; keep our recycled heap buffer and move the few
      // elements across.
      Value *D = data();
      for (uint32_t I = 0; I < O.Count; ++I)
        D[I] = std::move(O.InlineElems[I]);
      for (uint32_t I = O.Count; I < Count; ++I)
        D[I] = Value();
    }
    Count = O.Count;
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
