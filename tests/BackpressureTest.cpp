//===- BackpressureTest.cpp - The bounded pipeline -------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the bounded pipeline end to end: config validation, the
/// record bound at the log, through a full Verifier with a throttled
/// checker (with and without a segmented file log) and with concurrent
/// producers (the TSan suite), and the memory bound itself via a global
/// operator-new hook — the peak live heap of a bounded run must stay
/// orders of magnitude under what the unbounded queue would pin.
///
//===----------------------------------------------------------------------===//

#include "TelemetryCheck.h"
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

/// Options for an in-memory log whose reader queue holds at most \p Max
/// records.
BufferedLog::Options bounded(size_t Max) {
  BufferedLog::Options O;
  O.MaxPendingRecords = Max;
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
  /// Each spec call spins \p ThrottleUs; with a \p Gate, it first waits
  /// until the gate opens.
  explicit ThrottledRegisterSpec(unsigned ThrottleUs = 0,
                                 const std::atomic<bool> *Gate = nullptr)
      : SetM(name("bp.Set")), GetM(name("bp.Get")), State(Value(0)),
        ThrottleUs(ThrottleUs), Gate(Gate) {}

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
    while (Gate && !Gate->load(std::memory_order_acquire))
      std::this_thread::yield();
    if (ThrottleUs)
      spinFor(std::chrono::microseconds(ThrottleUs));
  }
  unsigned ThrottleUs;
  const std::atomic<bool> *Gate;
};

/// One correct Set(x) execution (3 records) through \p W, on object
/// \p Obj.
void appendSet(LogWriter &W, const ThrottledRegisterSpec &S, int64_t X,
               ThreadId Tid = 1, ObjectId Obj = 0) {
  for (Action A : {Action::call(Tid, S.SetM, {Value(X)}), Action::commit(Tid),
                   Action::ret(Tid, S.SetM, Value(true))}) {
    A.Obj = Obj;
    W.append(std::move(A));
  }
}

/// One correct Get() == \p X execution (2 records) through \p W, on
/// object \p Obj.
void appendGet(LogWriter &W, const ThrottledRegisterSpec &S, int64_t X,
               ThreadId Tid = 1, ObjectId Obj = 0) {
  for (Action A :
       {Action::call(Tid, S.GetM, {}), Action::ret(Tid, S.GetM, Value(X))}) {
    A.Obj = Obj;
    W.append(std::move(A));
  }
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

TEST(BackpressureConfigTest, ValidateRejectsOfflineBound) {
  VerifierConfig C;
  C.Online = false;
  C.Backpressure.Enabled = true;
  EXPECT_NE(C.validate(), "")
      << "offline has no concurrent reader: a blocked producer deadlocks";
  C.LogFilePath = "/tmp/x.bin";
  EXPECT_NE(C.validate(), "") << "a file sink does not make room either";
  C.Backpressure.Enabled = false;
  EXPECT_EQ(C.validate(), "") << "offline without a bound is fine";
}

//===----------------------------------------------------------------------===//
// Log-level policy behavior
//===----------------------------------------------------------------------===//

TEST(BufferedLogBackpressureTest, BlockBoundsTheQueue) {
  constexpr size_t Bound = 4;
  BufferedLog L(bounded(Bound));
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
  EXPECT_LE(S.PendingRecordsHwm, Bound);
  EXPECT_GT(S.BlockedAppends, 0u);
  EXPECT_GT(S.BlockedNanos, 0u);
}

TEST(BufferedLogBackpressureTest, BlockParksFlusherAndPropagates) {
  BufferedLog::Options O;
  O.ShardCapacity = 64;
  O.MaxPendingRecords = 32;
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
  EXPECT_LE(S.PendingRecordsHwm, O.MaxPendingRecords);
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
  C.Telemetry.Enabled = true;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 64;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/1, /*Execs=*/3000);
  EXPECT_TRUE(R.ok()) << R.str();
  expectTelemetryMatchesReport(R);
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
  C.Telemetry.Enabled = true;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 64;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/1, /*Execs=*/3000);
  EXPECT_TRUE(R.ok()) << R.str();
  expectTelemetryMatchesReport(R);
  EXPECT_EQ(R.Stats.MethodsChecked, 6000u);
  // The pump hands the pool 256-record batches, four times the bound.
  // Admission slices each batch at the free room, so the bound holds
  // exactly (a batch-granular admission would overshoot by up to a whole
  // pump batch).
  EXPECT_LE(R.Backpressure.PendingRecordsHwm, 64u)
      << "the bound must hold exactly, not modulo one batch";
}

TEST(VerifierBackpressureTest, PoolAdmissionNeverOvershootsTheBound) {
  // Regression: pool admission used to be batch-granular (wait for room,
  // then add the whole batch), overshooting MaxPendingRecords by up to a
  // pump batch. Here four workers contend for admission slices of
  // 256-record batches, eight times the bound.
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.CheckerThreads = 4;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 32;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/1, /*Execs=*/3000);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 6000u);
  EXPECT_LE(R.Backpressure.PendingRecordsHwm, 32u)
      << "the bound must hold exactly, not modulo one batch";
}

TEST(VerifierBackpressureTest, BlockWithSegmentsReclaimsCheckedPrefix) {
  std::string Path = tempPath("e2eseg");
  removeChain(Path);
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.LogFilePath = Path;
  C.Telemetry.Enabled = true;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 32;
  C.Backpressure.SegmentBytes = 4096;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/0, /*Execs=*/4000);
  EXPECT_TRUE(R.ok()) << R.str();
  expectTelemetryMatchesReport(R);
  EXPECT_EQ(R.Stats.MethodsChecked, 8000u);
  EXPECT_LE(R.Backpressure.PendingRecordsHwm, 32u);
  EXPECT_GT(R.Backpressure.SegmentsCreated, 2u);
  EXPECT_LE(R.Backpressure.SegmentsCreated - R.Backpressure.SegmentsReclaimed,
            2u)
      << "a fully checked run keeps at most the active segment (plus one "
         "rotation in flight)";
  removeChain(Path);
}

TEST(VerifierBackpressureTest, PulledTelemetryEqualsTheReportLiveAndFinal) {
  // The hub keeps no copy of blocked appends, segments or the per-object
  // counts: it pulls them from the log, the pool and the checker
  // service. Both checkers are held at their first spec call, so the
  // pool and then the log fill to their bounds while the monitor is
  // read mid-run; once released, the final snapshot must equal the
  // report field for field.
  std::string Path = tempPath("pulled");
  removeChain(Path);
  std::atomic<bool> Open{false};
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.CheckerThreads = 2;
  C.LogFilePath = Path;
  C.Telemetry.Enabled = true;
  C.Monitor.SocketPath = tempSocketPath("bppulled");
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 64;
  C.Backpressure.SegmentBytes = 4096;
  Verifier V(C);
  for (const char *Name : {"a", "b"})
    (void)V.registerObject(
        Name, std::make_unique<ThrottledRegisterSpec>(/*ThrottleUs=*/1, &Open));
  V.start();
  ThrottledRegisterSpec Script;
  std::thread Producer([&] {
    LogWriter &W = V.log().writer();
    for (int I = 0; I < 2000; ++I)
      for (ObjectId Obj : {0u, 1u}) {
        appendSet(W, Script, I, 1, Obj);
        appendGet(W, Script, I, 1, Obj);
      }
  });

  // Poll until both held objects have records queued and an append has
  // met the bound; every line read on the way must be consistent. (No
  // ASSERT before the producer is joined.)
  MonClient M(C.Monitor.SocketPath);
  bool Saturated = false, Consistent = true;
  std::string Line;
  for (int I = 0; I < 400 && !Saturated && Consistent; ++I) {
    Line = M.send("stats") ? M.readLine() : "";
    std::vector<std::array<uint64_t, 3>> Live = objectCounts(Line);
    Consistent = Live.size() == 2;
    Saturated = Consistent && jsonCount(Line, "blocked_appends") > 0;
    for (const std::array<uint64_t, 3> &O : Live) {
      Consistent = Consistent && O[1] <= O[0] && O[2] == O[0] - O[1];
      Saturated = Saturated && O[2] > 0;
    }
    if (!Saturated)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Open.store(true, std::memory_order_release);
  Producer.join();
  EXPECT_TRUE(Consistent)
      << "two objects, checked <= routed, backlog == routed - checked: "
      << Line;
  EXPECT_TRUE(Saturated)
      << "held checkers must queue records and back the pipeline up into "
         "the log: "
      << Line;

  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 8000u);
  EXPECT_GT(R.Backpressure.BlockedAppends, 0u);
  EXPECT_GT(R.Backpressure.SegmentsReclaimed, 0u);
  expectTelemetryMatchesReport(R);
  removeChain(Path);
}

TEST(VerifierBackpressureTest, UnboundedRunReportsItsBacklog) {
  // Without a bound the log's reader queue is still the one admission
  // path, with a bound nothing meets. The inline checker is held at its
  // first spec call until every record is appended, so the flusher
  // queues the backlog behind it: the report shows the queue's
  // high-water mark, and no append ever waited.
  std::atomic<bool> Open{false};
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  ThrottledRegisterSpec Script;
  Verifier V(std::make_unique<ThrottledRegisterSpec>(/*ThrottleUs=*/1, &Open),
             nullptr, std::move(C));
  V.start();
  LogWriter &W = V.log().writer();
  for (int I = 0; I < 3000; ++I) {
    appendSet(W, Script, I);
    appendGet(W, Script, I);
  }
  Open.store(true, std::memory_order_release);
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 6000u);
  EXPECT_GT(R.Backpressure.PendingRecordsHwm, 0u)
      << "a held checker must leave records queued";
  EXPECT_EQ(R.Backpressure.BlockedAppends, 0u);
}

TEST(VerifierBackpressureTest, VerdictsMatchTheUnboundedRun) {
  // Same workload, bounded (block) vs historical unbounded: identical
  // check coverage and verdicts, including the seeded mutator violation.
  VerifierConfig Unbounded;
  Unbounded.Checker.Mode = CheckMode::CM_IORefinement;
  VerifierReport A = runThrottled(Unbounded, /*ThrottleUs=*/0,
                                  /*Execs=*/2000, /*SeedViolation=*/true);
  VerifierConfig Bounded;
  Bounded.Checker.Mode = CheckMode::CM_IORefinement;
  Bounded.Backpressure.Enabled = true;
  Bounded.Backpressure.MaxPendingRecords = 32;
  VerifierReport B = runThrottled(Bounded, /*ThrottleUs=*/0,
                                  /*Execs=*/2000, /*SeedViolation=*/true);
  ASSERT_EQ(B.Violations.size(), 1u) << B.str();
  EXPECT_EQ(B.Violations[0].Kind, ViolationKind::VK_MutatorMismatch);
  ASSERT_EQ(A.Violations.size(), 1u) << A.str();
  EXPECT_EQ(A.Violations[0].Seq, B.Violations[0].Seq);
  EXPECT_EQ(A.Stats.MethodsChecked, B.Stats.MethodsChecked);
  EXPECT_EQ(A.Stats.CommitsProcessed, B.Stats.CommitsProcessed);
  EXPECT_EQ(A.Stats.ObserversChecked, B.Stats.ObserversChecked);
  EXPECT_EQ(A.LogRecords, B.LogRecords);
}

//===----------------------------------------------------------------------===//
// Concurrent producers (TSan suite)
//===----------------------------------------------------------------------===//

TEST(BackpressureStressTest, BoundedReadsNeverDuplicateRecords) {
  // Under a bound, records reach the reader through direct hand-offs
  // interleaved with pops of what flusher rounds queued, and rounds stop
  // short at the bound with the rest left parked. Two producers and an
  // unthrottled checker drive that interleaving over a file-backed log;
  // a round that re-emitted or skipped a parked record would deliver it
  // twice (duplicate commits, bracket-state violations) or never.
  ThrottledRegisterSpec Script;
  std::string Path = tempPath("bounded-dup");
  removeChain(Path);
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.LogFilePath = Path;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 128;
  Verifier V(std::make_unique<ThrottledRegisterSpec>(), nullptr,
             std::move(C));
  V.start();
  appendSet(V.log().writer(), Script, 7, /*Tid=*/9);
  constexpr int PerThread = 3000;
  std::vector<std::thread> Producers;
  for (int T = 0; T < 2; ++T)
    Producers.emplace_back([&, T] {
      LogWriter &W = V.log().writer();
      for (int I = 0; I < PerThread; ++I)
        appendGet(W, Script, 7, static_cast<ThreadId>(T + 1));
    });
  for (std::thread &P : Producers)
    P.join();
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.ObserversChecked, 2u * PerThread) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 2u * PerThread + 1) << R.str();
  removeChain(Path);
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
void pumpRecords(size_t Bound, int N) {
  BufferedLog L(bounded(Bound));
  Name Obs = internName("bp.rss.obs");
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
  int64_t Peak = peakHeapDelta([&] { pumpRecords(256, N); });
  EXPECT_LT(Peak, Budget)
      << "block: peak live heap must stay orders of magnitude under the "
         "~40 MB an unbounded queue would pin";
}
