//===- Instrument.cpp - Hooks the implementation code calls ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Instrument.h"

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

using namespace vyrd;

//===----------------------------------------------------------------------===//
// Thread ids
//===----------------------------------------------------------------------===//

namespace {

/// Dense-id registry with a free-list: ids released by exited threads are
/// handed to new threads before the high-water mark grows. Everything the
/// pipeline indexes by ThreadId (the checker's open-exec vectors,
/// BufferedLog's shard table) then stays bounded by the peak number of
/// *live* threads, not by the total ever created — long-running servers
/// with thread churn no longer grow those tables without bound.
std::mutex TidRegistryM;
std::vector<uint32_t> TidFreeList;
uint32_t TidHighWater = 0;

/// The id value itself stays a plain thread_local so the hot path is one
/// TLS load + compare; the releaser object below returns it to the
/// free-list when the thread exits.
thread_local uint32_t MyTid = UINT32_MAX;

/// Returning the id from a TLS destructor is safe for shard handoff: the
/// exiting thread's appends happen-before the free-list push (program
/// order), the push happens-before the pop (TidRegistryM), and the pop
/// happens-before the adopting thread's first append — so an SPSC shard
/// keyed by the recycled id never sees two producers at once.
struct TidReleaser {
  bool Armed = false;
  ~TidReleaser() {
    if (!Armed)
      return;
    std::lock_guard<std::mutex> Lock(TidRegistryM);
    TidFreeList.push_back(MyTid);
    // A late currentTid() from another TLS destructor re-acquires (and
    // may briefly alias a recycled id); no instrumented code runs that
    // late today, and the alternative — never recycling — is the
    // unbounded growth this registry exists to prevent.
    MyTid = UINT32_MAX;
  }
};
thread_local TidReleaser MyTidReleaser;

} // namespace

ThreadId vyrd::currentTid() {
  if (MyTid == UINT32_MAX) {
    std::lock_guard<std::mutex> Lock(TidRegistryM);
    if (!TidFreeList.empty()) {
      MyTid = TidFreeList.back();
      TidFreeList.pop_back();
    } else {
      MyTid = TidHighWater++;
    }
    MyTidReleaser.Armed = true;
  }
  return MyTid;
}

//===----------------------------------------------------------------------===//
// Chaos
//===----------------------------------------------------------------------===//

std::atomic<uint32_t> Chaos::InverseProb{0};
std::atomic<uint64_t> Chaos::BaseSeed{0};
std::atomic<uint64_t> Chaos::Session{0};

namespace {
/// Per-thread xorshift state, reseeded when the thread first observes a
/// new Chaos::enable session. Keying the reseed on a session counter (not
/// on the seed value) is what makes the sequence reproducible: re-enabling
/// with the same seed restarts the per-thread stream from the top instead
/// of silently continuing where the previous session left off.
thread_local uint64_t ChaosState = 0;
thread_local uint64_t ChaosSessionSeen = 0;
} // namespace

void Chaos::enable(uint32_t Inverse, uint64_t Seed) {
  BaseSeed.store(Seed | 1, std::memory_order_relaxed);
  Session.fetch_add(1, std::memory_order_relaxed);
  InverseProb.store(Inverse, std::memory_order_relaxed);
}

void Chaos::disable() { InverseProb.store(0, std::memory_order_relaxed); }

bool Chaos::point() {
  uint32_t Inv = InverseProb.load(std::memory_order_relaxed);
  if (Inv == 0)
    return false;
  uint64_t S = Session.load(std::memory_order_relaxed);
  if (ChaosSessionSeen != S) {
    ChaosSessionSeen = S;
    uint64_t Seed = BaseSeed.load(std::memory_order_relaxed);
    ChaosState = Seed * 0x9e3779b97f4a7c15ULL +
                 (static_cast<uint64_t>(currentTid()) + 1) * 0x100000001b3ULL;
  }
  // xorshift64*
  uint64_t X = ChaosState;
  X ^= X >> 12;
  X ^= X << 25;
  X ^= X >> 27;
  ChaosState = X;
  if ((X * 0x2545F4914F6CDD1DULL >> 33) % Inv != 0)
    return false;
  // A sleep, not a yield: with idle cores yield() returns at once, while
  // a sleep deschedules the thread, so a thread blocked on a lock it just
  // released gets to run inside the race window.
  std::this_thread::sleep_for(std::chrono::microseconds(1));
  return true;
}
