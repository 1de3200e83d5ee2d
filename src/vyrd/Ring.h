//===- Ring.h - Storage-recycling chunked FIFO queue ------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO queue of fixed-size chunks whose slots survive pop_front: a
/// popped element is not destroyed, so any heap storage it owns (a
/// spilled ValueList's buffer) is reused when the slot is next assigned.
/// std::deque is the wrong tool for the pipeline's Action-sized elements:
/// at 96 bytes libstdc++ fits five per 512-byte block, so steady
/// push/pop traffic frees and reallocates a block every fifth element.
///
/// Holding popped slots alive is a deliberate trade: memory stays bounded
/// by capacity x payload, but an element with observable ownership (e.g.
/// a shared_ptr keeping a pooled object pinned) must be reset by the
/// caller before pop_front if the reference itself has side effects. A
/// popped Action likewise keeps its string and byte payloads (shared,
/// immutable blobs; see Value.h) referenced until its slot is reassigned.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_RING_H
#define VYRD_RING_H

#include <cassert>
#include <cstddef>
#include <utility>

namespace vyrd {

/// An unbounded FIFO of fixed-size chunks with a chunk freelist, for
/// queues whose depth swings with backlog: a drained chunk goes to the
/// freelist and is handed back to the producer still warm, so the
/// small-depth steady state cycles through the same few cache-hot chunks
/// with zero heap traffic, while a deep burst degrades gracefully to one
/// allocation per ChunkElems elements (never a whole-queue copy). Slots
/// are never destroyed on pop: see the file comment.
template <typename T> class ChunkQueue {
  static constexpr size_t ChunkElems = sizeof(T) >= 128 ? 32 : 256;
  static constexpr size_t MaxFreeChunks = 8;
  struct Chunk {
    T Elems[ChunkElems];
    Chunk *Next = nullptr;
  };

public:
  ChunkQueue() = default;
  ChunkQueue(const ChunkQueue &) = delete;
  ChunkQueue &operator=(const ChunkQueue &) = delete;
  ~ChunkQueue() {
    releaseChain(HeadC);
    releaseChain(FreeC);
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  T &front() {
    assert(Count && "front() on empty queue");
    return HeadC->Elems[HeadI];
  }

  /// Assigns into the recycled slot (its heap storage is reused): one
  /// move (or one copy), never a by-value parameter's extra move.
  void push_back(T &&V) { slotForPush() = std::move(V); }
  void push_back(const T &V) { slotForPush() = V; }

  /// Visits every queued element front to back without consuming the
  /// queue (checker snapshots serialize the pending-event backlog).
  template <typename Fn> void forEach(Fn F) const {
    const Chunk *C = HeadC;
    size_t I = HeadI;
    for (size_t N = 0; N < Count; ++N) {
      if (I == ChunkElems) {
        C = C->Next;
        I = 0;
      }
      F(C->Elems[I]);
      ++I;
    }
  }

  void pop_front() {
    assert(Count && "pop_front() on empty queue");
    ++HeadI;
    --Count;
    if (HeadI == ChunkElems) {
      Chunk *C = HeadC;
      HeadC = C->Next;
      HeadI = 0;
      if (!HeadC) {
        TailC = nullptr;
        TailI = ChunkElems;
      }
      recycleChunk(C);
    } else if (Count == 0) {
      // Single partially-consumed chunk: rewind so the next burst reuses
      // the same hot slots from its start.
      HeadI = 0;
      TailI = 0;
    }
  }

private:
  T &slotForPush() {
    if (!TailC || TailI == ChunkElems) {
      Chunk *C = takeChunk();
      if (TailC)
        TailC->Next = C;
      else {
        HeadC = C;
        HeadI = 0;
      }
      TailC = C;
      TailI = 0;
    }
    ++Count;
    return TailC->Elems[TailI++];
  }

  Chunk *takeChunk() {
    if (FreeC) {
      Chunk *C = FreeC;
      FreeC = C->Next;
      --FreeCount;
      C->Next = nullptr;
      return C;
    }
    return new Chunk();
  }

  void recycleChunk(Chunk *C) {
    if (FreeCount >= MaxFreeChunks) {
      delete C;
      return;
    }
    C->Next = FreeC;
    FreeC = C;
    ++FreeCount;
  }

  static void releaseChain(Chunk *C) {
    while (C) {
      Chunk *Next = C->Next;
      delete C;
      C = Next;
    }
  }

  Chunk *HeadC = nullptr;
  Chunk *TailC = nullptr;
  Chunk *FreeC = nullptr; // freelist of drained chunks
  size_t HeadI = 0;
  size_t TailI = ChunkElems;
  size_t Count = 0;
  size_t FreeCount = 0;
};

} // namespace vyrd

#endif // VYRD_RING_H
