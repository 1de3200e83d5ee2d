//===- BufferedLog.cpp - Sharded, batched execution log -------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/BufferedLog.h"

#include "vyrd/Instrument.h"
#include "vyrd/Ring.h"
#include "vyrd/Serialize.h"
#include "vyrd/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#if defined(__SANITIZE_THREAD__)
#define VYRD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VYRD_TSAN 1
#endif
#endif

using namespace vyrd;

namespace {

/// Registers the process for expedited private membarrier, once. False
/// under TSan, which cannot model the barrier, and where the kernel or a
/// seccomp filter refuses the call; the log then keeps the seq_cst
/// publish (BufferedLog.h, "Who merges, who sleeps").
bool membarrierRegistered() {
#if defined(__linux__) && defined(__NR_membarrier) && !defined(VYRD_TSAN)
  static const bool Ok =
      syscall(__NR_membarrier, MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED,
              0, 0) == 0;
  return Ok;
#else
  return false;
#endif
}

/// The sleeper's half of the asymmetric fence: a full barrier on every
/// running thread of the process, when registered.
void membarrierAll() {
#if defined(__linux__) && defined(__NR_membarrier)
  if (membarrierRegistered())
    syscall(__NR_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0);
#endif
}

/// Read by every append: publish Head with a release store (true) or a
/// seq_cst store (false). Zero-initialized, hence false, for an append
/// that runs before this file's static initializers, which is the safe
/// side: a seq_cst publish pairs with a sleeper whether or not it
/// issues the barrier.
const bool AsymmetricPublish = membarrierRegistered();

/// Pauses the reader may spin, rechecking the shard heads, before it
/// parks (awaitRecords). About 5 us of x86 `pause`.
constexpr unsigned ReaderSpinPauses = 256;

void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Producer-side wait while the shard ring is full: a couple of yields,
/// then short sleeps so a starved merger gets CPU even on one core.
void backoff(unsigned Round) {
  if (Round < 8)
    std::this_thread::yield();
  else
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

/// Each BufferedLog gets a process-unique id; ids are never reused, so the
/// thread-local shard cache below can never hit a stale entry for a log
/// that was destroyed and another allocated at the same address.
std::atomic<uint64_t> NextLogInstanceId{1};

struct ShardCacheEntry {
  uint64_t LogId = 0;
  ThreadLogShard *Shard = nullptr;
};
constexpr size_t ShardCacheWays = 4;
/// Direct-mapped per-thread cache of (log instance -> this thread's
/// shard), so the append fast path avoids the registry mutex.
thread_local ShardCacheEntry ShardCache[ShardCacheWays];

/// Reorder-ring slot states: a drained record waits parked at its ticket
/// until a merge round emits the contiguous run it belongs to.
enum SlotState : uint8_t { SlotEmpty, SlotParked };

/// Where one thread (the reader or the flusher) parks: a sleeper flag and
/// an eventcount. BufferedLog.h ("Who merges, who sleeps") has the
/// argument that no wake-up is lost: the sleeper raises its flag, issues
/// the process-wide barrier (when the producers publish with a plain
/// release store), then rechecks for work; a producer publishes, then
/// loads the flag.
struct alignas(64) Sleeper {
  std::atomic<bool> Parked{false};
  std::atomic<uint32_t> Epoch{0};

  /// Wakes the thread if it is parked. The load keeps the common call (no
  /// sleeper) read-only; the exchange makes one waker per sleep.
  /// \returns true when this call woke the thread.
  bool wake() {
    if (Parked.load(std::memory_order_seq_cst) &&
        Parked.exchange(false, std::memory_order_seq_cst)) {
      Epoch.fetch_add(1, std::memory_order_seq_cst);
      Epoch.notify_one();
      return true;
    }
    return false;
  }

  /// Parks the calling thread unless \p HasWork, called once the flag is
  /// up and the barrier issued, finds something to do. \p OnPark runs when
  /// the recheck found nothing, or when a waker claimed the flag first: so
  /// every wake() that returns true follows an OnPark.
  template <typename Fn, typename Gn> void park(Fn HasWork, Gn OnPark) {
    uint32_t E = Epoch.load(std::memory_order_seq_cst);
    Parked.store(true, std::memory_order_seq_cst);
    membarrierAll();
    bool Work = HasWork();
    if (Work && Parked.exchange(false, std::memory_order_relaxed))
      return;
    OnPark();
    // A waker clears the flag before it bumps the epoch.
    if (!Work)
      Epoch.wait(E, std::memory_order_seq_cst);
  }
};

} // namespace

struct BufferedLog::Impl {
  Options Opts;
  uint64_t InstanceId = 0;

  /// The global order: every append claims one ticket (see BufferedLog.h
  /// for why a relaxed RMW is enough).
  std::atomic<uint64_t> Tickets{0};
  std::atomic<bool> Closed{false};

  /// Where the reader and the flusher park. Every append loads
  /// Reader.Parked; only parking and waking write its cache line.
  Sleeper Reader;
  Sleeper Flusher;
  /// A shard holding this many records wakes the flusher: half a ring.
  uint64_t ShardHalf = 0;

  /// Registered shards, indexed by dense thread id. Grown under RegistryM;
  /// shards live until the log is destroyed. Shards lists the same shards
  /// newest first, linked through ThreadLogShard::NextShard; it is only
  /// ever prepended to, so mergers and sleepers walk it without the mutex.
  std::mutex RegistryM;
  std::vector<std::unique_ptr<ThreadLogShard>> ShardByTid;
  std::atomic<ThreadLogShard *> Shards{nullptr};

  /// Merge state, guarded by MergeM (whoever runs the round).
  std::mutex MergeM;
  uint64_t SeqNext = 0; // next ticket to enter the global order
  /// The reorder ring: drained records parked at `Seq & ReorderMask`
  /// until the contiguous run starting at SeqNext is complete.
  std::vector<Action> Reorder;
  std::vector<uint8_t> Parked; // SlotState per slot
  uint64_t ReorderMask = 0;
  /// The disk side (FilePath mode): file(s), encoder, rotation.
  SegmentSink Sink;
  bool HasFile = false;

  /// The global, merged order the readers consume. Lock order: MergeM
  /// before QM.
  std::mutex QM;
  /// A bounded log's flusher waits here until the reader makes room.
  std::condition_variable QSpaceCV;
  ChunkQueue<Action> Q; // chunk-recycling: see Ring.h
  bool Finished = false; // flusher exited; Q holds everything remaining

  /// Backpressure state, guarded by QM (admission happens where a merge
  /// round pushes into Q; the shard rings have their own bound).
  BackpressureStats Stats;
  /// When the record now first in line met the bound (0: none waiting).
  /// One wait counts once, whichever round meets it.
  uint64_t BlockedSince = 0;

  /// Serializes close() so it is idempotent.
  std::mutex CloseM;
  bool CloseDone = false;

  /// Started by the constructor once everything above exists; joined by
  /// close().
  std::thread FlusherThread;
};

//===----------------------------------------------------------------------===//
// ThreadLogShard
//===----------------------------------------------------------------------===//

ThreadLogShard::ThreadLogShard(BufferedLog &Parent, size_t Capacity)
    : Parent(Parent), Slots(std::bit_ceil(std::max<size_t>(Capacity, 2))),
      Mask(Slots.size() - 1) {}

uint64_t ThreadLogShard::append(Action A) {
  BufferedLog::Impl &P = *Parent.I;
  assert(!P.Closed.load(std::memory_order_relaxed) && "append after close");
  uint64_t H = Head.load(std::memory_order_relaxed);
  // Latency sampling reuses the already-loaded ring position instead of a
  // separate tick counter: every 64th append per shard takes two clock
  // reads, the rest pay nothing.
  uint64_t T0 = 0;
  if (!TC)
    if (Telemetry *T = Parent.telemetry())
      TC = &T->cell();
  if (TC && (H & 63) == 0)
    T0 = telemetryNowNanos();
  if (H - CachedTail > Mask) {
    CachedTail = Tail.load(std::memory_order_acquire);
    if (H - CachedTail > Mask) {
      if (TC)
        TC->count(Counter::C_AppendStalls);
      for (unsigned Round = 0; H - CachedTail > Mask; ++Round) {
        // Ring full: nobody keeps up, so hand the backlog to the flusher.
        P.Flusher.wake();
        backoff(Round);
        CachedTail = Tail.load(std::memory_order_acquire);
      }
    }
  }
  // Claim the record's place in the global order only once a slot is
  // certain, so a producer never stalls between ticket and publish longer
  // than the store below takes.
  uint64_t Ticket = P.Tickets.fetch_add(1, std::memory_order_relaxed);
  A.Seq = Ticket;
  Slots[H & Mask] = std::move(A);
  // The producer's half of the lost-wake-up argument (BufferedLog.h): the
  // publish, then the flag loads below. A release store and a compiler
  // barrier keep them in that order in the instruction stream, and a
  // sleeper's membarrier orders them on the CPU; without membarrier, a
  // seq_cst store does both.
  if (AsymmetricPublish) {
    Head.store(H + 1, std::memory_order_release);
    asm volatile("" ::: "memory");
  } else {
    Head.store(H + 1, std::memory_order_seq_cst);
  }
  if (P.Reader.wake() && TC)
    TC->count(Counter::C_ReaderWakes);
  if (H + 1 - CachedTail == P.ShardHalf) {
    // Passing half full by the cached tail: if the real tail agrees,
    // nobody is keeping up, and the flusher takes over.
    CachedTail = Tail.load(std::memory_order_acquire);
    if (H + 1 - CachedTail >= P.ShardHalf)
      P.Flusher.wake();
  }
  if (T0)
    TC->record(Histo::H_AppendNs, telemetryNowNanos() - T0);
  return Ticket;
}

size_t ThreadLogShard::drain() {
  uint64_t T = Tail.load(std::memory_order_relaxed);
  uint64_t H = Head.load(std::memory_order_acquire);
  size_t N = static_cast<size_t>(H - T);
  for (; T != H; ++T)
    Parent.park(std::move(Slots[T & Mask]));
  if (N)
    Tail.store(T, std::memory_order_release);
  return N;
}

//===----------------------------------------------------------------------===//
// BufferedLog
//===----------------------------------------------------------------------===//

BufferedLog::BufferedLog() : BufferedLog(Options()) {}

BufferedLog::BufferedLog(Options O) : I(std::make_unique<Impl>()) {
  I->Opts = std::move(O);
  I->InstanceId =
      NextLogInstanceId.fetch_add(1, std::memory_order_relaxed);
  // Big enough that the flusher only grows it if a producer stalls
  // between taking a ticket and publishing while others run far ahead.
  I->Reorder.resize(std::bit_ceil(std::max<size_t>(
      2 * std::bit_ceil(std::max<size_t>(I->Opts.ShardCapacity, 2)), 16)));
  I->Parked.assign(I->Reorder.size(), SlotEmpty);
  I->ReorderMask = I->Reorder.size() - 1;
  I->ShardHalf =
      std::bit_ceil(std::max<size_t>(I->Opts.ShardCapacity, 2)) / 2;
  if (!I->Opts.FilePath.empty()) {
    // Plain file or rotated segment chain, header(s) included — see
    // SegmentSink (docs/LOGFORMAT.md).
    Valid = I->Sink.open(I->Opts.FilePath, I->Opts.SegmentBytes);
    I->HasFile = Valid;
  }
  I->FlusherThread = std::thread([this] { flusherMain(); });
}

BufferedLog::~BufferedLog() { close(); }

ThreadLogShard &BufferedLog::shardForCurrentThread() {
  ThreadId Tid = currentTid();
  std::lock_guard Lock(I->RegistryM);
  if (I->ShardByTid.size() <= Tid)
    I->ShardByTid.resize(Tid + 1);
  if (!I->ShardByTid[Tid]) {
    auto S = std::make_unique<ThreadLogShard>(*this, I->Opts.ShardCapacity);
    S->NextShard = I->Shards.load(std::memory_order_relaxed);
    // seq_cst: ordered before this shard's first publish for the sleepers'
    // recheck (BufferedLog.h).
    I->Shards.store(S.get(), std::memory_order_seq_cst);
    I->ShardByTid[Tid] = std::move(S);
  }
  return *I->ShardByTid[Tid];
}

LogWriter &BufferedLog::writer() {
  ShardCacheEntry &E = ShardCache[I->InstanceId % ShardCacheWays];
  if (E.LogId == I->InstanceId)
    return *E.Shard;
  ThreadLogShard &S = shardForCurrentThread();
  E.LogId = I->InstanceId;
  E.Shard = &S;
  return S;
}

uint64_t BufferedLog::append(Action A) { return writer().append(std::move(A)); }

size_t BufferedLog::shardCount() const {
  size_t N = 0;
  for (ThreadLogShard *S = I->Shards.load(std::memory_order_acquire); S;
       S = S->NextShard)
    ++N;
  return N;
}

size_t BufferedLog::drainShards() {
  size_t Drained = 0;
  for (ThreadLogShard *S = I->Shards.load(std::memory_order_acquire); S;
       S = S->NextShard)
    Drained += S->drain();
  return Drained;
}

void BufferedLog::park(Action &&A) {
  if (A.Seq - I->SeqNext >= I->Reorder.size()) {
    // A producer stalled between ticket and publish while others ran more
    // than a ring's worth ahead. Grow and re-park by each record's own
    // (dense, unique) ticket.
    size_t NewSize =
        std::bit_ceil<uint64_t>(A.Seq - I->SeqNext + 1) * 2;
    std::vector<Action> NewReorder(NewSize);
    std::vector<uint8_t> NewParked(NewSize, 0);
    for (size_t Slot = 0; Slot != I->Reorder.size(); ++Slot)
      if (I->Parked[Slot]) {
        Action &Old = I->Reorder[Slot];
        NewParked[Old.Seq & (NewSize - 1)] = SlotParked;
        NewReorder[Old.Seq & (NewSize - 1)] = std::move(Old);
      }
    I->Reorder = std::move(NewReorder);
    I->Parked = std::move(NewParked);
    I->ReorderMask = NewSize - 1;
    if (Telemetry *T = telemetry())
      T->count(Counter::C_ReorderGrows);
  }
  size_t Slot = A.Seq & I->ReorderMask;
  I->Parked[Slot] = SlotParked;
  I->Reorder[Slot] = std::move(A);
}

uint64_t BufferedLog::admitLocked(uint64_t First, uint64_t S, bool Reader,
                                  bool &Blocked) {
  const uint64_t Bound = I->Opts.MaxPendingRecords;
  // The queue as it will stand after this round's pushes. The reader can
  // only shrink it before they happen, so the bound holds.
  uint64_t Pending = I->Q.size();
  uint64_t Room = Pending < Bound ? Bound - Pending : 0;
  uint64_t End = First + std::min(S - First, Room);
  if (End != First && I->BlockedSince) {
    I->Stats.BlockedNanos += telemetryNowNanos() - I->BlockedSince;
    I->BlockedSince = 0;
  }
  if (End != S) {
    // The record at End waits parked: for the reader to drain the queue
    // (its own next round), or for the flusher to wait for room.
    if (!I->BlockedSince) {
      ++I->Stats.BlockedAppends;
      I->BlockedSince = telemetryNowNanos();
    }
    Blocked = !Reader;
  }
  return End;
}

void BufferedLog::publishLocked(uint64_t First, uint64_t S) {
  for (uint64_t Ti = First; Ti != S; ++Ti)
    I->Q.push_back(std::move(I->Reorder[Ti & I->ReorderMask]));
  I->Stats.PendingRecordsHwm =
      std::max<uint64_t>(I->Stats.PendingRecordsHwm, I->Q.size());
  if (Telemetry *T = telemetry())
    T->gaugeAdd(Gauge::G_PendingRecords, S - First);
}

size_t BufferedLog::emitReady(bool Reader, bool &Blocked,
                              std::vector<Action> *Out, size_t Max) {
  const uint64_t First = I->SeqNext;
  uint64_t S = First;
  while (S - First < I->Reorder.size() && I->Parked[S & I->ReorderMask])
    ++S;
  bool Direct = false;
  if (S != First && I->Opts.RetainRecords) {
    std::lock_guard Lock(I->QM);
    // Straight into the caller's batch only past an empty queue, so every
    // record queued before this run is consumed first. Only merge rounds
    // push, and this one holds MergeM: the queue stays empty until the
    // run is handed over.
    Direct = Out && I->Q.empty();
    if (Direct)
      S = std::min<uint64_t>(S, First + Max);
    S = admitLocked(First, S, Reader, Blocked);
  }
  if (S == First)
    return 0;
  if (I->HasFile) {
    // A rotation records its cut here, before any record past it is
    // handed out.
    for (uint64_t T = First; T != S; ++T)
      I->Sink.write(I->Reorder[T & I->ReorderMask]);
    I->Sink.flushPending();
  }
  if (I->Opts.RetainRecords && !Direct) {
    std::lock_guard Lock(I->QM);
    publishLocked(First, S);
  }
  for (uint64_t T = First; T != S; ++T) {
    size_t Slot = T & I->ReorderMask;
    if (Direct)
      Out->push_back(std::move(I->Reorder[Slot]));
    I->Parked[Slot] = SlotEmpty;
  }
  I->SeqNext = S;
  return static_cast<size_t>(S - First);
}

BufferedLog::MergeResult
BufferedLog::mergeRound(bool Reader, std::vector<Action> *Out, size_t Max) {
  std::lock_guard Lock(I->MergeM);
  MergeResult R;
  // Drain only once the run at SeqNext is used up. A round stopped at the
  // queue bound leaves records parked; pulling more out of the shards
  // then would move the whole backlog into the reorder ring past the
  // bound instead of leaving it to press on the producers.
  if (!I->Parked[I->SeqNext & I->ReorderMask])
    R.Drained = drainShards();
  R.Emitted = emitReady(Reader, R.Blocked, Out, Max);
  if (R.Emitted)
    if (Telemetry *T = telemetry()) {
      // Recorded by whichever thread ran the round.
      TelemetryCell &TC = T->cell();
      TC.count(Counter::C_FlushBatches);
      TC.count(Counter::C_FlushedRecords, R.Emitted);
      TC.record(Histo::H_FlushBatch, R.Emitted);
      // Occupancy after the merge: tickets issued but not yet in the
      // global order (parked, unpublished or undrained records).
      TC.record(Histo::H_ReorderOccupancy,
                I->Tickets.load(std::memory_order_relaxed) - I->SeqNext);
    }
  R.CaughtUp = I->SeqNext == I->Tickets.load(std::memory_order_acquire);
  return R;
}

bool BufferedLog::shardsHold(uint64_t N, std::memory_order MO) const {
  for (ThreadLogShard *S = I->Shards.load(MO); S; S = S->NextShard)
    if (S->Head.load(MO) - S->Tail.load(std::memory_order_acquire) >= N)
      return true;
  return false;
}

void BufferedLog::awaitRecords() {
  // Every park costs the process a barrier on each running thread, and
  // the next append a wake-up: spin a little first, in case a record is
  // on its way. The caller runs another round when this returns.
  for (unsigned K = 0; K != ReaderSpinPauses; ++K) {
    if (shardsHold(1, std::memory_order_acquire))
      return;
    cpuRelax();
  }
  I->Reader.park(
      [this] {
        {
          std::lock_guard Lock(I->QM);
          if (!I->Q.empty() || I->Finished)
            return true;
        }
        return shardsHold(1);
      },
      [this] {
        if (Telemetry *T = telemetry())
          T->count(Counter::C_ReaderParks);
      });
}

void BufferedLog::flusherMain() {
  auto WakeReader = [this] {
    if (I->Reader.wake())
      if (Telemetry *T = telemetry())
        T->count(Counter::C_ReaderWakes);
  };
  for (;;) {
    // Order matters: observe Closed before the round, so everything
    // appended before close() is captured by this round's drain.
    bool ClosedNow = I->Closed.load(std::memory_order_seq_cst);
    MergeResult R = mergeRound(/*Reader=*/false);
    if (R.Emitted || R.Blocked)
      WakeReader(); // the queue changed under a reader that may be parked
    if (ClosedNow && R.CaughtUp)
      break;
    if (R.Blocked) {
      // Wait for the reader to make room below the bound.
      std::unique_lock Lock(I->QM);
      I->QSpaceCV.wait(
          Lock, [this] { return I->Q.size() < I->Opts.MaxPendingRecords; });
    } else if (!R.Drained && !R.Emitted) {
      I->Flusher.park(
          [this] {
            return I->Closed.load(std::memory_order_seq_cst) ||
                   shardsHold(I->ShardHalf);
          },
          [] {});
    }
  }
  if (I->HasFile)
    I->Sink.sync();
  {
    std::lock_guard Lock(I->QM);
    I->Finished = true;
  }
  WakeReader();
}

void BufferedLog::close() {
  std::lock_guard Lock(I->CloseM);
  if (I->CloseDone)
    return;
  I->CloseDone = true;
  I->Closed.store(true, std::memory_order_seq_cst);
  I->Flusher.wake();
  I->FlusherThread.join();
}

void BufferedLog::dequeuedLocked(size_t N) {
  if (Telemetry *T = telemetry())
    T->gaugeSub(Gauge::G_PendingRecords, N);
  I->QSpaceCV.notify_one();
}

bool BufferedLog::next(Action &Out) {
  bool End = false;
  while (!tryNext(Out, End) && !End)
    awaitRecords();
  return !End;
}

bool BufferedLog::tryNext(Action &Out, bool &End) {
  std::unique_lock Lock(I->QM);
  if (I->Q.empty() && !I->Finished) {
    Lock.unlock();
    mergeRound(/*Reader=*/true);
    Lock.lock();
  }
  End = I->Q.empty() && I->Finished;
  if (I->Q.empty())
    return false;
  Out = std::move(I->Q.front());
  I->Q.pop_front();
  dequeuedLocked(1);
  return true;
}

bool BufferedLog::tryNextBatch(std::vector<Action> &Out, size_t Max,
                               bool &End) {
  Out.clear();
  if (Max == 0)
    Max = 1; // the Log::nextBatch contract
  std::unique_lock Lock(I->QM);
  if (I->Q.empty() && !I->Finished) {
    Lock.unlock();
    // A round that finds the queue empty delivers straight into Out.
    mergeRound(/*Reader=*/true, &Out, Max);
    End = false;
    if (!Out.empty())
      return true;
    Lock.lock();
  }
  End = I->Q.empty() && I->Finished;
  // The queue holds what flusher rounds emitted while this reader was
  // away: take it in one pass, with one gauge update and wake-up for the
  // whole batch.
  size_t N = std::min(I->Q.size(), Max);
  for (size_t K = 0; K != N; ++K) {
    Out.push_back(std::move(I->Q.front()));
    I->Q.pop_front();
  }
  if (N)
    dequeuedLocked(N);
  return N != 0;
}

bool BufferedLog::nextBatch(std::vector<Action> &Out, size_t Max) {
  bool End = false;
  while (!tryNextBatch(Out, Max, End) && !End)
    awaitRecords();
  return !End;
}

bool BufferedLog::asymmetricPublish() { return AsymmetricPublish; }

uint64_t BufferedLog::appendCount() const {
  return I->Tickets.load(std::memory_order_acquire);
}

uint64_t BufferedLog::byteCount() const {
  return I->HasFile ? I->Sink.bytesWritten() : 0;
}

BackpressureStats BufferedLog::backpressureStats() const {
  std::lock_guard Lock(I->QM);
  BackpressureStats S = I->Stats;
  if (I->HasFile)
    S.merge(I->Sink.stats());
  return S;
}

void BufferedLog::takeSegmentCuts(std::vector<SegmentCut> &Out) {
  I->Sink.drainCuts(Out);
}

void BufferedLog::reclaimCheckedPrefix(uint64_t Watermark) {
  if (!I->HasFile || !I->Opts.SegmentBytes)
    return;
  if (I->Opts.ReclaimSegments)
    I->Sink.reclaimThrough(Watermark);
}
