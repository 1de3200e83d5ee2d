//===- BackpressureTest.cpp - Bounded-pipeline admission policies ----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the bounded pipeline end to end: config validation, the
/// three admission policies (BP_Block / BP_SpillToDisk / BP_Shed) at the
/// log, without (MemoryLogBackpressureTest) and with
/// (FileLogBackpressureTest) a file sink, and through a full Verifier with
/// a throttled checker, and the memory bound itself via a global
/// operator-new hook — the peak live heap of a bounded run must stay
/// orders of magnitude under what the unbounded queue would pin.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "vyrd/BufferedLog.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <thread>

using namespace vyrd;
using namespace vyrd::test;

//===----------------------------------------------------------------------===//
// Live-heap accounting hook
//===----------------------------------------------------------------------===//

namespace {
/// Always-on live-byte ledger (so frees of pre-test allocations cannot
/// skew it negative); the peak only advances while a test arms GTrackPeak
/// around the region it wants to bound.
std::atomic<int64_t> GLiveBytes{0};
std::atomic<int64_t> GPeakBytes{0};
std::atomic<bool> GTrackPeak{false};
} // namespace

void *operator new(size_t Size) {
  void *P = std::malloc(Size ? Size : 1);
  if (!P)
    throw std::bad_alloc();
  int64_t Live = GLiveBytes.fetch_add(::malloc_usable_size(P),
                                      std::memory_order_relaxed) +
                 static_cast<int64_t>(::malloc_usable_size(P));
  if (GTrackPeak.load(std::memory_order_relaxed)) {
    int64_t Peak = GPeakBytes.load(std::memory_order_relaxed);
    while (Live > Peak &&
           !GPeakBytes.compare_exchange_weak(Peak, Live,
                                             std::memory_order_relaxed))
      ;
  }
  return P;
}

void *operator new[](size_t Size) { return operator new(Size); }

void operator delete(void *P) noexcept {
  if (!P)
    return;
  GLiveBytes.fetch_sub(::malloc_usable_size(P), std::memory_order_relaxed);
  std::free(P);
}

void operator delete(void *P, size_t) noexcept { operator delete(P); }
void operator delete[](void *P) noexcept { operator delete(P); }
void operator delete[](void *P, size_t) noexcept { operator delete(P); }

namespace {

std::string tempPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-bptest-" + Tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

void removeChain(const std::string &Base) {
  std::remove(Base.c_str());
  for (uint64_t I = 1; I <= 256; ++I)
    std::remove(logSegmentPath(Base, I).c_str());
}

/// Options for a log bounded by \p BP, with a file sink at \p Path when
/// it is non-empty.
BufferedLog::Options bounded(const BackpressureConfig &BP,
                             const std::string &Path = "") {
  BufferedLog::Options O;
  O.FilePath = Path;
  O.Backpressure = BP;
  return O;
}

void spinFor(std::chrono::nanoseconds D) {
  auto Until = std::chrono::steady_clock::now() + D;
  while (std::chrono::steady_clock::now() < Until)
    ;
}

/// Integer register: Set(x) -> true mutates, Get() -> x observes. An
/// optional per-spec-step busy-wait throttles the checker so producers
/// outrun it and the bounded queues actually fill.
class ThrottledRegisterSpec : public Spec {
public:
  explicit ThrottledRegisterSpec(unsigned ThrottleUs = 0)
      : SetM(name("bp.Set")), GetM(name("bp.Get")), State(Value(0)),
        ThrottleUs(ThrottleUs) {}

  bool isObserver(Name Method) const override { return Method == GetM; }

  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &) override {
    throttle();
    if (Method != SetM || Args.size() != 1 || !Ret.isBool() ||
        !Ret.asBool())
      return false;
    State = Args[0];
    return true;
  }

  bool returnAllowed(Name Method, const ValueList &,
                     const Value &Ret) const override {
    throttle();
    return Method == GetM && Ret == State;
  }

  void buildView(View &Out) const override { Out.clear(); }

  Name SetM, GetM;
  Value State;

private:
  void throttle() const {
    if (ThrottleUs)
      spinFor(std::chrono::microseconds(ThrottleUs));
  }
  unsigned ThrottleUs;
};

/// One correct Set(x) execution (3 records) through \p W.
void appendSet(LogWriter &W, const ThrottledRegisterSpec &S, int64_t X,
               ThreadId Tid = 1) {
  W.append(Action::call(Tid, S.SetM, {Value(X)}));
  W.append(Action::commit(Tid));
  W.append(Action::ret(Tid, S.SetM, Value(true)));
}

/// One correct Get() == \p X execution (2 records) through \p W.
void appendGet(LogWriter &W, const ThrottledRegisterSpec &S, int64_t X,
               ThreadId Tid = 1) {
  W.append(Action::call(Tid, S.GetM, {}));
  W.append(Action::ret(Tid, S.GetM, Value(X)));
}

} // namespace

//===----------------------------------------------------------------------===//
// VerifierConfig::validate
//===----------------------------------------------------------------------===//

TEST(BackpressureConfigTest, ValidateAcceptsDefaults) {
  VerifierConfig C;
  EXPECT_EQ(C.validate(), "");
  C.Backpressure.Enabled = true;
  EXPECT_EQ(C.validate(), "") << "BP_Block online is the safe default";
}

TEST(BackpressureConfigTest, ValidateRejectsZeroPendingBound) {
  VerifierConfig C;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 0;
  EXPECT_NE(C.validate(), "");
  C.Backpressure.Enabled = false;
  EXPECT_EQ(C.validate(), "") << "the bound is ignored while disabled";
}

TEST(BackpressureConfigTest, ValidateRejectsSpillWithoutFileBackedLog) {
  VerifierConfig C;
  C.Backpressure.Enabled = true;
  C.Backpressure.Policy = BackpressurePolicy::BP_SpillToDisk;
  EXPECT_NE(C.validate(), "") << "no LogFilePath: nowhere to spill";
  C.LogFilePath = "/tmp/x.bin";
  EXPECT_EQ(C.validate(), "");
}

TEST(BackpressureConfigTest, ValidateRejectsOfflineBlockAndShed) {
  VerifierConfig C;
  C.Online = false;
  C.Backpressure.Enabled = true;
  C.Backpressure.Policy = BackpressurePolicy::BP_Block;
  EXPECT_NE(C.validate(), "")
      << "offline has no concurrent reader: a blocked producer deadlocks";
  C.Backpressure.Policy = BackpressurePolicy::BP_Shed;
  EXPECT_NE(C.validate(), "");
  C.Backpressure.Policy = BackpressurePolicy::BP_SpillToDisk;
  C.LogFilePath = "/tmp/x.bin";
  EXPECT_EQ(C.validate(), "")
      << "offline spill is fine: producers never block on it";
}

//===----------------------------------------------------------------------===//
// Log-level policy behavior
//===----------------------------------------------------------------------===//

TEST(MemoryLogBackpressureTest, BlockBoundsTheQueue) {
  BackpressureConfig BP;
  BP.Enabled = true;
  BP.MaxPendingRecords = 4;
  BufferedLog L(bounded(BP));
  constexpr int N = 300;
  std::thread Producer([&] {
    for (int I = 0; I < N; ++I)
      L.append(Action::commit(1));
    L.close();
  });
  // A deliberately slow reader, so the producer hits the bound.
  Action A;
  uint64_t Expected = 0;
  while (L.next(A)) {
    EXPECT_EQ(A.Seq, Expected++);
    if (Expected % 16 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Producer.join();
  EXPECT_EQ(Expected, static_cast<uint64_t>(N));
  BackpressureStats S = L.backpressureStats();
  EXPECT_LE(S.PendingRecordsHwm, BP.MaxPendingRecords);
  EXPECT_GT(S.BlockedAppends, 0u);
  EXPECT_GT(S.BlockedNanos, 0u);
}

TEST(MemoryLogBackpressureTest, ByteCeilingAloneTriggersThePolicy) {
  BackpressureConfig BP;
  BP.Enabled = true;
  BP.MaxPendingRecords = 1 << 20; // effectively unbounded record count
  BP.MaxTailBytes = 4096;
  BufferedLog L(bounded(BP));
  Name M = internName("bp.bytes");
  std::string Fat(256, 'x'); // heap payload per record
  constexpr int N = 400;
  std::thread Producer([&] {
    for (int I = 0; I < N; ++I)
      L.append(Action::call(1, M, {Value(Fat)}));
    L.close();
  });
  Action A;
  int Read = 0;
  while (L.next(A)) {
    ++Read;
    if (Read % 8 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Producer.join();
  EXPECT_EQ(Read, N);
  BackpressureStats S = L.backpressureStats();
  EXPECT_GT(S.BlockedAppends, 0u) << "the byte ceiling must have engaged";
  EXPECT_LE(S.TailBytesHwm, BP.MaxTailBytes + actionFootprintBytes(
                                Action::call(1, M, {Value(Fat)})))
      << "occupancy may overshoot by at most the admitted record";
}

TEST(MemoryLogBackpressureTest, ShedDropsWholeObserverExecutions) {
  BackpressureConfig BP;
  BP.Enabled = true;
  BP.MaxPendingRecords = 2;
  BP.Policy = BackpressurePolicy::BP_Shed;
  BufferedLog L(bounded(BP));
  Name Obs = internName("bp.obs");
  Name Mut = internName("bp.mut");
  L.setShedClassifier(
      [Obs](const Action &A) { return A.Method == Obs; });
  // No reader: the queue fills and stays over its bound.
  L.append(Action::call(1, Obs, {}));           // seq 0, under limit
  L.append(Action::ret(1, Obs, Value(1)));      // seq 1
  L.append(Action::call(1, Mut, {Value(2)}));   // seq 2: never shed
  L.append(Action::commit(1));                  // seq 3
  L.append(Action::ret(1, Mut, Value(true)));   // seq 4
  L.append(Action::call(1, Obs, {}));           // seq 5: over limit, shed
  L.append(Action::ret(1, Obs, Value(2)));      // seq 6: same window, shed
  L.append(Action::commit(1));                  // seq 7: commit, never shed
  L.close();
  EXPECT_EQ(L.appendCount(), 8u) << "shed records still consume seqs";
  std::vector<uint64_t> Seqs;
  Action A;
  while (L.next(A))
    Seqs.push_back(A.Seq);
  EXPECT_EQ(Seqs, (std::vector<uint64_t>{0, 1, 2, 3, 4, 7}));
  BackpressureStats S = L.backpressureStats();
  EXPECT_EQ(S.ShedRecords, 2u) << "exact accounting of the shed window";
}

TEST(FileLogBackpressureTest, SpillDeliversEverythingInOrder) {
  std::string Path = tempPath("spill");
  removeChain(Path);
  BackpressureConfig BP;
  BP.Enabled = true;
  BP.MaxPendingRecords = 8;
  BP.Policy = BackpressurePolicy::BP_SpillToDisk;
  BufferedLog L(bounded(BP, Path));
  ASSERT_TRUE(L.valid());
  Name M = internName("bp.fspill");
  constexpr int N = 500;
  // No reader while appending: everything past the bound is disk-only.
  for (int I = 0; I < N; ++I)
    L.append(Action::call(1, M, {Value(static_cast<int64_t>(I))}));
  L.close();
  Action A;
  uint64_t Expected = 0;
  while (L.next(A)) {
    ASSERT_EQ(A.Seq, Expected) << "spill fill-in must preserve order";
    EXPECT_EQ(A.Args[0].asInt(), static_cast<int64_t>(Expected));
    ++Expected;
  }
  EXPECT_EQ(Expected, static_cast<uint64_t>(N));
  BackpressureStats S = L.backpressureStats();
  EXPECT_LE(S.PendingRecordsHwm, BP.MaxPendingRecords);
  EXPECT_GT(S.SpilledRecords, 0u);
  EXPECT_EQ(S.BlockedAppends, 0u) << "spill never blocks producers";
  removeChain(Path);
}

TEST(FileLogBackpressureTest, SpillWorksWithConcurrentReaderAndSegments) {
  std::string Path = tempPath("spillseg");
  removeChain(Path);
  BackpressureConfig BP;
  BP.Enabled = true;
  BP.MaxPendingRecords = 16;
  BP.Policy = BackpressurePolicy::BP_SpillToDisk;
  BP.SegmentBytes = 2048;
  BufferedLog L(bounded(BP, Path));
  ASSERT_TRUE(L.valid());
  Name M = internName("bp.cspill");
  constexpr int N = 2000;
  std::thread Producer([&] {
    for (int I = 0; I < N; ++I)
      L.append(Action::call(1, M, {Value(static_cast<int64_t>(I))}));
    L.close();
  });
  Action A;
  uint64_t Expected = 0;
  while (L.next(A)) {
    ASSERT_EQ(A.Seq, Expected);
    ++Expected;
    if (Expected % 64 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Producer.join();
  EXPECT_EQ(Expected, static_cast<uint64_t>(N));
  BackpressureStats S = L.backpressureStats();
  EXPECT_LE(S.PendingRecordsHwm, BP.MaxPendingRecords);
  EXPECT_GT(S.SegmentsCreated, 1u);
  removeChain(Path);
}

TEST(BufferedLogBackpressureTest, BlockParksFlusherAndPropagates) {
  BufferedLog::Options O;
  O.ShardCapacity = 64;
  O.Backpressure.Enabled = true;
  O.Backpressure.MaxPendingRecords = 32;
  BufferedLog L(O);
  ASSERT_TRUE(L.valid());
  constexpr int N = 4000;
  std::thread Producer([&] {
    LogWriter &W = L.writer();
    for (int I = 0; I < N; ++I)
      W.append(Action::commit(1));
  });
  Action A;
  uint64_t Expected = 0;
  bool Closed = false;
  while (true) {
    if (!Closed && Expected % 128 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    if (!L.next(A)) {
      if (Closed)
        break;
      continue;
    }
    ASSERT_EQ(A.Seq, Expected);
    ++Expected;
    if (Expected == N && !Closed) {
      Producer.join();
      L.close();
      Closed = true;
    }
  }
  if (!Closed) {
    Producer.join();
    L.close();
  }
  EXPECT_EQ(Expected, static_cast<uint64_t>(N));
  BackpressureStats S = L.backpressureStats();
  EXPECT_LE(S.PendingRecordsHwm, O.Backpressure.MaxPendingRecords);
}

//===----------------------------------------------------------------------===//
// End-to-end through a Verifier with a throttled checker
//===----------------------------------------------------------------------===//

namespace {

/// Appends \p Execs correct executions (one Set + one Get each, 5
/// records) through \p V's log, then finishes.
VerifierReport runThrottled(VerifierConfig C, unsigned ThrottleUs,
                            int Execs, bool SeedViolation = false) {
  auto SpecPtr = std::make_unique<ThrottledRegisterSpec>(ThrottleUs);
  ThrottledRegisterSpec Script; // same method names, for the producer
  Verifier V(std::move(SpecPtr), nullptr, std::move(C));
  V.start();
  LogWriter &W = V.log().writer();
  for (int I = 0; I < Execs; ++I) {
    appendSet(W, Script, I);
    appendGet(W, Script, I);
  }
  if (SeedViolation) {
    // A mutator the spec cannot execute: Set that "returns" false.
    W.append(Action::call(1, Script.SetM, {Value(-1)}));
    W.append(Action::commit(1));
    W.append(Action::ret(1, Script.SetM, Value(false)));
  }
  return V.finish();
}

} // namespace

TEST(VerifierBackpressureTest, BlockKeepsPendingUnderBoundInline) {
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 64;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/1, /*Execs=*/3000);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 6000u);
  EXPECT_LE(R.Backpressure.PendingRecordsHwm, 64u);
  EXPECT_GT(R.Backpressure.BlockedAppends, 0u)
      << "a 1us/step checker must fall behind a tight producer loop";
  EXPECT_TRUE(jsonValid(R.json())) << R.json();
}

TEST(VerifierBackpressureTest, BlockBoundsThePoolToo) {
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.CheckerThreads = 2;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 64;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/1, /*Execs=*/3000);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 6000u);
  // Pool admission slices batches at the free room, so the bound holds
  // exactly (it used to be batch-granular, overshooting by up to one
  // pump batch).
  EXPECT_LE(R.Backpressure.PendingRecordsHwm, 64u);
}

TEST(VerifierBackpressureTest, ShedReportsExactCountsAndKeepsViolations) {
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 16;
  C.Backpressure.Policy = BackpressurePolicy::BP_Shed;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/2, /*Execs=*/3000,
                                  /*SeedViolation=*/true);
  ASSERT_EQ(R.Violations.size(), 1u)
      << "the seeded mutator violation must survive shedding: " << R.str();
  EXPECT_EQ(R.Violations[0].Kind, ViolationKind::VK_MutatorMismatch);
  EXPECT_GT(R.Backpressure.ShedRecords, 0u);
  EXPECT_EQ(R.Backpressure.ShedRecords % 2, 0u)
      << "observer executions are two records; sheds come in whole "
         "windows";
  ASSERT_EQ(R.Notes.size(), 1u);
  EXPECT_NE(R.Notes[0].find("degraded"), std::string::npos) << R.Notes[0];
  EXPECT_NE(R.str().find("note: degraded"), std::string::npos);
  EXPECT_TRUE(jsonValid(R.json())) << R.json();
  EXPECT_NE(R.json().find("\"notes\""), std::string::npos);
  // MethodsChecked + shed windows account for every appended execution.
  uint64_t ShedExecs = R.Backpressure.ShedRecords / 2;
  EXPECT_EQ(R.Stats.MethodsChecked + ShedExecs, 6001u);
}

TEST(VerifierBackpressureTest, SpillWithSegmentsReclaimsCheckedPrefix) {
  std::string Path = tempPath("e2espill");
  removeChain(Path);
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.LogFilePath = Path;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 32;
  C.Backpressure.Policy = BackpressurePolicy::BP_SpillToDisk;
  C.Backpressure.SegmentBytes = 4096;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/0, /*Execs=*/4000);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 8000u);
  EXPECT_LE(R.Backpressure.PendingRecordsHwm, 32u);
  EXPECT_GT(R.Backpressure.SegmentsCreated, 2u);
  EXPECT_LE(R.Backpressure.SegmentsCreated - R.Backpressure.SegmentsReclaimed,
            2u)
      << "a fully checked run keeps at most the active segment (plus one "
         "rotation in flight)";
  removeChain(Path);
}

TEST(VerifierBackpressureTest, VerdictsMatchTheUnboundedRun) {
  // Same workload, bounded (block) vs historical unbounded: identical
  // check coverage and verdicts.
  VerifierConfig Unbounded;
  Unbounded.Checker.Mode = CheckMode::CM_IORefinement;
  VerifierReport A = runThrottled(Unbounded, /*ThrottleUs=*/0,
                                  /*Execs=*/2000);
  VerifierConfig Bounded;
  Bounded.Checker.Mode = CheckMode::CM_IORefinement;
  Bounded.Backpressure.Enabled = true;
  Bounded.Backpressure.MaxPendingRecords = 32;
  VerifierReport B = runThrottled(Bounded, /*ThrottleUs=*/0,
                                  /*Execs=*/2000);
  EXPECT_EQ(A.ok(), B.ok());
  EXPECT_EQ(A.Stats.MethodsChecked, B.Stats.MethodsChecked);
  EXPECT_EQ(A.Stats.CommitsProcessed, B.Stats.CommitsProcessed);
  EXPECT_EQ(A.Stats.ObserversChecked, B.Stats.ObserversChecked);
  EXPECT_EQ(A.LogRecords, B.LogRecords);
}

//===----------------------------------------------------------------------===//
// The memory bound itself
//===----------------------------------------------------------------------===//

namespace {

/// Peak live-heap delta while running \p Body.
int64_t peakHeapDelta(const std::function<void()> &Body) {
  int64_t Before = GLiveBytes.load(std::memory_order_relaxed);
  GPeakBytes.store(Before, std::memory_order_relaxed);
  GTrackPeak.store(true, std::memory_order_relaxed);
  Body();
  GTrackPeak.store(false, std::memory_order_relaxed);
  return GPeakBytes.load(std::memory_order_relaxed) - Before;
}

/// A producer/slow-reader round through one in-memory log: N records with a
/// heap payload each. Under a 256-record bound the queue pins ~tens of
/// KB; unbounded it would pin N * ~200 bytes (tens of MB).
void pumpRecords(const BackpressureConfig &BP, int N) {
  BufferedLog L(bounded(BP));
  Name Obs = internName("bp.rss.obs");
  if (BP.Policy == BackpressurePolicy::BP_Shed)
    L.setShedClassifier(
        [Obs](const Action &A) { return A.Method == Obs; });
  std::string Payload(48, 'p'); // defeats small-string storage
  std::thread Producer([&] {
    for (int I = 0; I < N; I += 2) {
      L.append(Action::call(1, Obs, {Value(Payload)}));
      L.append(Action::ret(1, Obs, Value(7)));
    }
    L.close();
  });
  Action A;
  int Read = 0;
  while (L.next(A)) {
    ++Read;
    if (Read % 256 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  Producer.join();
}

} // namespace

TEST(BackpressureHeapTest, PeakHeapStaysBoundedUnderEveryPolicy) {
  constexpr int N = 200000; // ~40 MB if the queue were unbounded
  constexpr int64_t Budget = 8 << 20;
  for (BackpressurePolicy P :
       {BackpressurePolicy::BP_Block, BackpressurePolicy::BP_Shed}) {
    BackpressureConfig BP;
    BP.Enabled = true;
    BP.MaxPendingRecords = 256;
    BP.Policy = P;
    int64_t Peak = peakHeapDelta([&] { pumpRecords(BP, N); });
    EXPECT_LT(Peak, Budget)
        << backpressurePolicyName(P)
        << ": peak live heap must stay orders of magnitude under the "
           "~40 MB an unbounded queue would pin";
  }
  // Spill needs a file-backed log; same bound, same assertion.
  std::string Path = tempPath("rss");
  removeChain(Path);
  int64_t Peak = peakHeapDelta([&] {
    BackpressureConfig BP;
    BP.Enabled = true;
    BP.MaxPendingRecords = 256;
    BP.Policy = BackpressurePolicy::BP_SpillToDisk;
    BufferedLog L(bounded(BP, Path));
    ASSERT_TRUE(L.valid());
    Name M = internName("bp.rss.spill");
    std::string Payload(48, 'p');
    std::thread Producer([&] {
      for (int I = 0; I < N; ++I)
        L.append(Action::call(1, M, {Value(Payload)}));
      L.close();
    });
    Action A;
    int Read = 0;
    while (L.next(A))
      ++Read;
    Producer.join();
    EXPECT_EQ(Read, N);
  });
  EXPECT_LT(Peak, Budget) << "spill: bounded tail, disk absorbs the rest";
  removeChain(Path);
}
