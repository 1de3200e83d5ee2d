//===- ArrayMultiset.cpp - The paper's running multiset example -----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "multiset/ArrayMultiset.h"

#include <algorithm>
#include <cassert>

using namespace vyrd;
using namespace vyrd::multiset;

Vocab Vocab::get() {
  Vocab V;
  V.Insert = internName("Insert");
  V.InsertPair = internName("InsertPair");
  V.Delete = internName("Delete");
  V.LookUp = internName("LookUp");
  return V;
}

Name Vocab::eltName(size_t I) {
  return internName("A[" + std::to_string(I) + "].elt");
}

Name Vocab::validName(size_t I) {
  return internName("A[" + std::to_string(I) + "].valid");
}

ArrayMultisetImpl::ArrayMultisetImpl(const Options &Opts, AutoContext &Ctx)
    : Opts(Opts), Ctx(Ctx) {
  for (size_t I = 0; I < Opts.Capacity; ++I)
    Slots.emplace_back(Ctx, I);
}

int ArrayMultisetImpl::findSlot(int64_t X) {
  for (size_t I = 0, N = Slots.size(); I < N; ++I) {
    Slot &S = Slots[I];
    if (Opts.BuggyFindSlot) {
      // Fig. 5: the emptiness test is performed without holding the slot
      // lock, and the slot is reserved without re-checking. Two threads can
      // both see A[i].elt == null and both reserve slot i; the second
      // overwrites the first.
      bool LooksFree;
      {
        LockGuard Lock(S.M); // read the field safely, release, decide
        LooksFree = S.Elt == Empty;
      }
      if (LooksFree) {
        Chaos::point(); // the racy window
        LockGuard Lock(S.M);
        S.Elt = X;
        return static_cast<int>(I);
      }
      continue;
    }
    // Correct version (Fig. 2): test and reserve under the slot lock.
    LockGuard Lock(S.M);
    if (S.Elt == Empty) {
      S.Elt = X;
      return static_cast<int>(I);
    }
  }
  return -1;
}

void ArrayMultisetImpl::releaseSlot(int I) {
  assert(I >= 0 && static_cast<size_t>(I) < Slots.size());
  Slot &S = Slots[I];
  LockGuard Lock(S.M);
  assert((!S.Valid || Opts.BuggyFindSlot) && "releasing a published slot");
  S.Elt = Empty;
}

bool ArrayMultisetImpl::insert(int64_t X) {
  int I = findSlot(X);
  if (I == -1) {
    // Exceptional termination with no state change (the specification
    // permits Insert to fail under contention): the auto layer commits on
    // return.
    return false;
  }
  Slot &S = Slots[I];
  LockGuard Lock(S.M);
  S.Valid = true;
  ModCount.fetch_add(1, std::memory_order_release);
  Ctx.commit();
  return true;
}

bool ArrayMultisetImpl::insertPair(int64_t X, int64_t Y) {
  int I = findSlot(X);
  if (I == -1)
    return false;
  int J = findSlot(Y);
  if (J == -1) {
    releaseSlot(I);
    return false;
  }
  if (I == J) {
    // Only reachable through the injected FindSlot race: a concurrent
    // buggy reservation overwrote slot I and was then released, so the
    // second FindSlot handed the same slot out again. Publish what we
    // have (one slot for two elements) instead of self-deadlocking on the
    // slot lock; the missing element is exactly what view refinement then
    // reports.
    Slot &S = Slots[I];
    LockGuard Lock(S.M);
    S.Valid = true;
    ModCount.fetch_add(1, std::memory_order_release);
    Ctx.commit();
    return true;
  }
  {
    // Fig. 4 lines 9-14: publish both elements atomically under both slot
    // locks. (We acquire in index order to avoid deadlock; the paper's
    // pseudocode elides this.) The outermost shim lock is the commit
    // block; the commit point is inside it (line 13).
    Slot &SLo = Slots[I < J ? I : J];
    Slot &SHi = Slots[I < J ? J : I];
    LockGuard LockLo(SLo.M);
    LockGuard LockHi(SHi.M);
    Slots[I].Valid = true;
    Chaos::point();
    Slots[J].Valid = true;
    ModCount.fetch_add(1, std::memory_order_release);
    Ctx.commit();
  }
  return true;
}

bool ArrayMultisetImpl::remove(int64_t X) {
  for (size_t I = 0, N = Slots.size(); I < N; ++I) {
    Slot &S = Slots[I];
    LockGuard Lock(S.M);
    if (S.Elt != X || !S.Valid)
      continue;
    S.Valid = false;
    S.Elt = Empty;
    ModCount.fetch_add(1, std::memory_order_release);
    Ctx.commit();
    return true;
  }
  return false;
}

std::vector<int64_t> ArrayMultisetImpl::snapshot() const {
  std::vector<int64_t> Out;
  // Slot-by-slot under each lock; callers use this at quiescent points or
  // on an atomized (globally locked) instance, where it is exact.
  for (const Slot &S : Slots) {
    LockGuard Lock(S.M);
    if (S.Valid)
      Out.push_back(S.Elt);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool ArrayMultisetImpl::scanOnce(int64_t X) const {
  for (size_t I = 0, N = Slots.size(); I < N; ++I) {
    const Slot &S = Slots[I];
    LockGuard Lock(S.M);
    if (S.Elt == X && S.Valid)
      return true;
  }
  return false;
}

bool ArrayMultisetImpl::lookUp(int64_t X) const {
  while (true) {
    uint64_t Before = ModCount.load(std::memory_order_acquire);
    if (scanOnce(X)) {
      // A positive sighting under the slot lock is a valid linearization
      // point regardless of concurrent mutations.
      return true;
    }
    if (!Opts.LinearizableScan ||
        ModCount.load(std::memory_order_acquire) == Before) {
      // Nothing committed during the scan: the miss is a consistent
      // snapshot. (Without the guard this is the paper's plain Fig. 2
      // scan, which can miss a continuously-present element.)
      return false;
    }
  }
}
