//===- BufferedLogTest.cpp - Tests for the sharded log backend ------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The properties the refinement checker depends on, checked under real
// concurrency: sequence numbers form a dense total order, records are
// consumed in exactly that order, and each producer thread's program
// order embeds into it. The stress tests deliberately use tiny shard
// capacities so the backpressure path runs; CI additionally runs this
// binary under -fsanitize=thread.
//
//===----------------------------------------------------------------------===//

#include "vyrd/BufferedLog.h"
#include "vyrd/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <thread>
#include <time.h>

#if defined(__SANITIZE_THREAD__)
#define VYRD_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VYRD_TEST_TSAN 1
#endif
#endif

using namespace vyrd;
using namespace std::chrono_literals;

namespace {

std::string tempPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-bufferedlog-" + Tag +
         "-" + std::to_string(::getpid()) + ".bin";
}

/// Appends Ops records from each of NumThreads producers; each record
/// carries (logical thread id, per-thread counter) so order can be
/// audited after the fact.
void produce(BufferedLog &L, unsigned NumThreads, unsigned Ops) {
  Name M = internName("op");
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&, T] {
      LogWriter &W = L.writer();
      for (unsigned I = 0; I < Ops; ++I)
        W.append(Action::call(T, M, {Value(static_cast<int64_t>(I))}));
    });
  for (auto &T : Ts)
    T.join();
}

/// Asserts the consumed stream is seq-dense and preserves each logical
/// thread's program order (the counter in Args[0]).
void auditOrder(const std::vector<Action> &Got, unsigned NumThreads,
                unsigned Ops) {
  ASSERT_EQ(Got.size(), static_cast<size_t>(NumThreads) * Ops);
  std::map<ThreadId, int64_t> NextPerThread;
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Seq, I) << "global order must be seq-dense";
    int64_t &Next = NextPerThread[Got[I].Tid];
    EXPECT_EQ(Got[I].Args[0], Value(Next))
        << "thread " << Got[I].Tid << " program order broken at seq " << I;
    ++Next;
  }
  for (auto &[Tid, Next] : NextPerThread)
    EXPECT_EQ(Next, static_cast<int64_t>(Ops)) << "thread " << Tid;
}

/// Polls \p Done for up to 10 s. A reader that missed its wake-up, or a
/// merge that waits on itself, would otherwise hang the suite; past the
/// deadline the threads cannot be joined, so the test aborts instead.
void watchdog(const std::atomic<bool> &Done, const char *What) {
  auto Deadline = std::chrono::steady_clock::now() + 10s;
  while (!Done.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > Deadline) {
      std::fprintf(stderr, "watchdog: %s did not finish within 10 s\n",
                   What);
      std::abort();
    }
    std::this_thread::sleep_for(1ms);
  }
}

/// Starts \p Read on a reader thread against an open log, gives it time
/// to park, appends one record, and expects the reader to return it
/// while the log is still open.
void expectReaderWakesOnOneAppend(
    const std::function<bool(BufferedLog &, Action &)> &Read) {
  BufferedLog L;
  L.writer();
  Action Got;
  bool Ok = false;
  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    Ok = Read(L, Got);
    Done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(20ms);
  L.append(Action::commit(7));
  watchdog(Done, "reader after a single append");
  Reader.join();
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Got.Kind, ActionKind::AK_Commit);
  EXPECT_EQ(Got.Tid, 7u);
  L.close();
}

double processCpuMs() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return Ts.tv_sec * 1e3 + Ts.tv_nsec / 1e6;
}

} // namespace

TEST(BufferedLogTest, StressPreservesTotalAndPerThreadOrder) {
  constexpr unsigned NumThreads = 4, Ops = 5000;
  BufferedLog::Options O;
  O.ShardCapacity = 64; // small: force the backpressure path
  BufferedLog L(O);

  // Concurrent consumer, batched like Verifier::pump.
  std::vector<Action> Got;
  std::thread Reader([&] {
    std::vector<Action> Batch;
    while (L.nextBatch(Batch, 128))
      for (Action &A : Batch)
        Got.push_back(std::move(A));
  });
  produce(L, NumThreads, Ops);
  L.close();
  Reader.join();

  EXPECT_EQ(L.appendCount(), static_cast<uint64_t>(NumThreads) * Ops);
  // A thread that finishes early can hand its recycled id, and with it
  // its shard, to a later producer.
  EXPECT_GE(L.shardCount(), 1u);
  EXPECT_LE(L.shardCount(), NumThreads);
  auditOrder(Got, NumThreads, Ops);
}

TEST(BufferedLogTest, DrainAfterCloseWithNoConcurrentReader) {
  constexpr unsigned NumThreads = 3, Ops = 400;
  BufferedLog L;
  produce(L, NumThreads, Ops);
  L.close();
  std::vector<Action> Got;
  Action A;
  while (L.next(A))
    Got.push_back(std::move(A));
  auditOrder(Got, NumThreads, Ops);
}

TEST(BufferedLogTest, AppendReturnsTheTicket) {
  BufferedLog L;
  Name M = internName("t");
  EXPECT_EQ(L.append(Action::call(0, M, {})), 0u);
  EXPECT_EQ(L.append(Action::commit(0)), 1u);
  EXPECT_EQ(L.append(Action::ret(0, M, Value(true))), 2u);
  EXPECT_EQ(L.appendCount(), 3u);
  L.close();
}

TEST(BufferedLogTest, NextBatchRespectsMax) {
  BufferedLog L;
  for (int I = 0; I < 10; ++I)
    L.append(Action::commit(0));
  L.close();
  std::vector<Action> Batch;
  ASSERT_TRUE(L.nextBatch(Batch, 4));
  EXPECT_EQ(Batch.size(), 4u);
  EXPECT_EQ(Batch[0].Seq, 0u);
  ASSERT_TRUE(L.nextBatch(Batch, 100));
  EXPECT_EQ(Batch.size(), 6u);
  EXPECT_FALSE(L.nextBatch(Batch, 4));
  EXPECT_TRUE(Batch.empty());
}

TEST(BufferedLogTest, TryNextReportsPendingVsEnd) {
  BufferedLog L;
  Action A;
  bool End = true;
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_FALSE(End) << "log still open: not at end";
  L.append(Action::commit(5));
  L.close(); // joins the flusher: the record is now in the global order
  ASSERT_TRUE(L.tryNext(A, End));
  EXPECT_EQ(A.Tid, 5u);
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_TRUE(End);
}

TEST(BufferedLogTest, BlockingReaderWakesOnAppend) {
  BufferedLog L;
  Action Got;
  std::thread Reader([&] { ASSERT_TRUE(L.next(Got)); });
  L.append(Action::commit(7));
  Reader.join();
  EXPECT_EQ(Got.Kind, ActionKind::AK_Commit);
  EXPECT_EQ(Got.Tid, 7u);
  L.close();
}

TEST(BufferedLogTest, NextBatchWakesOnOneAppend) {
  expectReaderWakesOnOneAppend([](BufferedLog &L, Action &Out) {
    std::vector<Action> Batch;
    if (!L.nextBatch(Batch, 64) || Batch.size() != 1)
      return false;
    Out = std::move(Batch.front());
    return true;
  });
}

TEST(BufferedLogTest, NextWakesOnOneAppend) {
  expectReaderWakesOnOneAppend(
      [](BufferedLog &L, Action &Out) { return L.next(Out); });
}

TEST(BufferedLogTest, TryNextPollingSeesOneAppend) {
  expectReaderWakesOnOneAppend([](BufferedLog &L, Action &Out) {
    for (;;) {
      bool End = false;
      if (L.tryNext(Out, End))
        return true;
      if (End)
        return false;
      std::this_thread::yield();
    }
  });
}

TEST(BufferedLogTest, NextBatchWithZeroMaxTakesOneRecord) {
  BufferedLog L;
  for (int I = 0; I < 3; ++I)
    L.append(Action::commit(0));
  std::vector<Action> Batch;
  ASSERT_TRUE(L.nextBatch(Batch, 0)) << "records pending: not end of log";
  ASSERT_EQ(Batch.size(), 1u) << "Max == 0 is treated as 1";
  EXPECT_EQ(Batch[0].Seq, 0u);
  L.close();
  ASSERT_TRUE(L.nextBatch(Batch, 0));
  EXPECT_EQ(Batch[0].Seq, 1u);
}

TEST(BufferedLogTest, BurstyProducersReachAParkedReaderInOrder) {
  // Bursts with pauses make the reader park and wake over and over; every
  // record must arrive exactly once, in ticket order, while the log is
  // still open (close() would wake a reader that missed its wake-up).
  constexpr unsigned NumThreads = 4, Ops = 20000;
  BufferedLog::Options O;
  O.ShardCapacity = 256; // bursts sometimes pass half: the flusher joins in
  BufferedLog L(O);
  std::vector<Action> Got;
  std::atomic<uint64_t> NumGot{0};
  std::atomic<bool> ReaderDone{false};
  std::thread Reader([&] {
    std::vector<Action> Batch;
    while (L.nextBatch(Batch, 128)) {
      for (Action &A : Batch)
        Got.push_back(std::move(A));
      NumGot.store(Got.size(), std::memory_order_release);
    }
    ReaderDone.store(true, std::memory_order_release);
  });
  Name M = internName("burst");
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&, T] {
      std::mt19937 Rng(1234 + T);
      LogWriter &W = L.writer();
      for (unsigned I = 0; I < Ops;) {
        unsigned Burst = 1 + Rng() % 200;
        for (unsigned B = 0; B < Burst && I < Ops; ++B, ++I)
          W.append(Action::call(T, M, {Value(static_cast<int64_t>(I))}));
        std::this_thread::sleep_for(std::chrono::microseconds(Rng() % 51));
      }
    });
  for (auto &T : Ts)
    T.join();
  std::atomic<bool> AllIn{false};
  std::thread Waiter([&] {
    while (NumGot.load(std::memory_order_acquire) < NumThreads * Ops &&
           !ReaderDone.load(std::memory_order_acquire))
      std::this_thread::sleep_for(1ms);
    AllIn.store(true, std::memory_order_release);
  });
  watchdog(AllIn, "the open log's reader");
  Waiter.join();
  EXPECT_FALSE(ReaderDone.load()) << "reader saw end of log before close()";
  L.close();
  Reader.join();
  auditOrder(Got, NumThreads, Ops);
}

TEST(BufferedLogTest, ReaderRoundNeverWaitsOnItsOwnQueue) {
  // With a bound of 1-3 records, a reader-side round that admitted a
  // whole run would wait for room only it can make. It must emit at most
  // the free room and leave the rest parked.
  constexpr unsigned NumThreads = 4, Ops = 2000;
  for (size_t Bound : {1, 2, 3}) {
    SCOPED_TRACE(Bound);
    BufferedLog::Options O;
    O.ShardCapacity = 64;
    O.MaxPendingRecords = Bound;
    BufferedLog L(O);
    std::vector<Action> Got;
    size_t LargestBatch = 0;
    std::atomic<bool> Done{false};
    std::thread Reader([&] {
      std::vector<Action> Batch;
      while (Got.size() < NumThreads * Ops && L.nextBatch(Batch, 256)) {
        LargestBatch = std::max(LargestBatch, Batch.size());
        for (Action &A : Batch)
          Got.push_back(std::move(A));
      }
      Done.store(true, std::memory_order_release);
    });
    std::thread Producers([&] { produce(L, NumThreads, Ops); });
    watchdog(Done, "the bounded log's reader");
    Reader.join();
    Producers.join();
    L.close();
    auditOrder(Got, NumThreads, Ops);
    EXPECT_LE(L.backpressureStats().PendingRecordsHwm, Bound);
    // A run handed straight to the reader is capped by the same bound.
    EXPECT_LE(LargestBatch, Bound);
  }
}

TEST(BufferedLogTest, MixedDeliveryPathsKeepTicketOrder) {
  // A reader that sleeps between batches leaves the merging to flusher
  // rounds, which queue; when it comes back to an empty queue its own
  // rounds hand runs straight to its batch. Small rings and small batches
  // keep the flusher merging while the reader does, so the two paths
  // interleave. Either way every record arrives once, in ticket order,
  // while the log is still open.
  constexpr unsigned NumThreads = 4, Ops = 10000;
  BufferedLog::Options O;
  O.ShardCapacity = 16;
  BufferedLog L(O);
  std::vector<Action> Got;
  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    std::vector<Action> Batch;
    std::mt19937 Rng(99);
    while (Got.size() < NumThreads * Ops && L.nextBatch(Batch, 16)) {
      for (Action &A : Batch)
        Got.push_back(std::move(A));
      if (Rng() % 16 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(Rng() % 50));
    }
    Done.store(true, std::memory_order_release);
  });
  std::thread Producers([&] { produce(L, NumThreads, Ops); });
  watchdog(Done, "the sleeping reader");
  Reader.join();
  Producers.join();
  L.close();
  auditOrder(Got, NumThreads, Ops);
  EXPECT_GT(L.backpressureStats().PendingRecordsHwm, 0u)
      << "flusher rounds never queued: only one path ran";
}

TEST(BufferedLogTest, QueueGaugesBalanceAfterDrain) {
  // Only queued records count as pending; a batch taken from the queue
  // subtracts what its records added, a run handed straight to the reader
  // never adds. Drained and closed, the gauge reads zero again.
  constexpr unsigned NumThreads = 4, Ops = 3000;
  Telemetry T;
  BufferedLog::Options O;
  O.ShardCapacity = 64;
  O.MaxPendingRecords = 512;
  BufferedLog L(O);
  L.setTelemetry(&T);
  uint64_t Read = 0;
  std::thread Reader([&] {
    std::vector<Action> Batch;
    std::mt19937 Rng(7);
    while (L.nextBatch(Batch, 128)) {
      Read += Batch.size();
      if (Rng() % 4 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(Rng() % 200));
    }
  });
  produce(L, NumThreads, Ops);
  L.close();
  Reader.join();
  EXPECT_EQ(Read, NumThreads * Ops);
  TelemetrySnapshot S = T.snapshot();
  EXPECT_EQ(S.gauge(Gauge::G_PendingRecords), 0u);
  EXPECT_EQ(S.counter(Counter::C_FlushedRecords), L.appendCount());
  EXPECT_EQ(L.appendCount(), NumThreads * Ops);
  L.setTelemetry(nullptr);
}

TEST(BufferedLogTest, BoundedRoundsDeliverEveryRecordToASleepingReader) {
  // Four producers press on a 4-record BP_Block bound while the reader
  // sleeps at random between batches: flusher rounds meet the bound and
  // wait, and the reader's own rounds hand runs straight to its batch.
  // Every record must arrive exactly once, in ticket order and in its
  // thread's program order.
  constexpr unsigned NumThreads = 4, Execs = 3000;
  BufferedLog::Options O;
  O.ShardCapacity = 32;
  O.MaxPendingRecords = 4;
  BufferedLog L(O);
  Name Obs = internName("obs"), Mut = internName("mut");
  std::vector<Action> Got;
  std::thread Reader([&] {
    std::vector<Action> Batch;
    std::mt19937 Rng(5);
    while (L.nextBatch(Batch, 64)) {
      for (Action &A : Batch)
        Got.push_back(std::move(A));
      if (Rng() % 4 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(Rng() % 200));
    }
  });
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&, T] {
      LogWriter &W = L.writer();
      for (unsigned I = 0; I < Execs; ++I) {
        Value Id(static_cast<int64_t>(I));
        Name M = I % 2 ? Obs : Mut;
        W.append(Action::call(T, M, {Id}));
        if (M == Mut)
          W.append(Action::commit(T));
        else if (I % 16 == 1)
          // Let a round end between call and return, so an execution a
          // flusher round started is finished by a reader round.
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        W.append(Action::ret(T, M, Id));
      }
    });
  for (auto &T : Ts)
    T.join();
  L.close();
  Reader.join();

  ASSERT_EQ(Got.size(), NumThreads * (Execs / 2) * 5);
  std::map<ThreadId, std::vector<const Action *>> PerThread;
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].Seq, I) << "global order must be seq-dense";
    PerThread[Got[I].Tid].push_back(&Got[I]);
  }
  // Per thread: exactly the records it appended, in its program order.
  for (unsigned T = 0; T < NumThreads; ++T) {
    const std::vector<const Action *> &Rs = PerThread[T];
    size_t K = 0;
    auto Expect = [&](ActionKind Kind, unsigned I) {
      ASSERT_LT(K, Rs.size()) << "thread " << T << " lost exec " << I;
      const Action &A = *Rs[K++];
      ASSERT_EQ(A.Kind, Kind) << "thread " << T << " exec " << I;
      Value Id(static_cast<int64_t>(I));
      if (Kind == ActionKind::AK_Call) {
        EXPECT_EQ(A.Args[0], Id) << "thread " << T << " exec " << I;
      } else if (Kind == ActionKind::AK_Return) {
        EXPECT_EQ(A.Ret, Id) << "thread " << T << " exec " << I;
      }
    };
    for (unsigned I = 0; I < Execs && !HasFailure(); ++I) {
      Expect(ActionKind::AK_Call, I);
      if (I % 2 == 0)
        Expect(ActionKind::AK_Commit, I);
      Expect(ActionKind::AK_Return, I);
    }
    EXPECT_EQ(K, Rs.size()) << "thread " << T << ": stray records";
  }
  EXPECT_EQ(PerThread.size(), NumThreads) << "records from a stray thread";
  BackpressureStats S = L.backpressureStats();
  EXPECT_LE(S.PendingRecordsHwm, 4u);
  EXPECT_GT(S.BlockedAppends, 0u)
      << "the bound never engaged: the test did not run its path";
}

TEST(BufferedLogTest, IdleOpenLogUsesNoCpu) {
  BufferedLog L;
  L.writer(); // a registered, idle producer
  std::vector<Action> Batch;
  std::thread Reader([&] { ASSERT_TRUE(L.nextBatch(Batch, 64)); });
  std::this_thread::sleep_for(20ms); // let the reader park
  double Cpu0 = processCpuMs();
  std::this_thread::sleep_for(200ms);
  double Used = processCpuMs() - Cpu0;
  EXPECT_LT(Used, 5.0) << "an idle log must not poll";
  L.append(Action::commit(1));
  Reader.join();
  L.close();
}

TEST(BufferedLogTest, ReaderParksAndWakesAreCounted) {
  // Single-record bursts with pauses longer than the reader's spin: the
  // reader parks between them and each append wakes it.
  constexpr unsigned N = 40;
  Telemetry T;
  BufferedLog L;
  L.setTelemetry(&T);
  LogWriter &W = L.writer();
  std::vector<Action> Got;
  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    std::vector<Action> Batch;
    while (Got.size() < N && L.nextBatch(Batch, 64))
      for (Action &A : Batch)
        Got.push_back(std::move(A));
    Done.store(true, std::memory_order_release);
  });
  for (unsigned I = 0; I < N; ++I) {
    std::this_thread::sleep_for(2ms);
    W.append(Action::commit(I));
  }
  watchdog(Done, "the reader of single-record bursts");
  Reader.join();
  ASSERT_EQ(Got.size(), N);
  for (unsigned I = 0; I < N; ++I) {
    EXPECT_EQ(Got[I].Seq, I);
    EXPECT_EQ(Got[I].Tid, I);
  }
  TelemetrySnapshot S = T.snapshot();
  uint64_t Parks = S.counter(Counter::C_ReaderParks);
  uint64_t Wakes = S.counter(Counter::C_ReaderWakes);
  EXPECT_GE(Parks, N / 2) << "the reader never slept: the park path did "
                             "not run";
  EXPECT_LE(Wakes, Parks) << "a wake-up without a sleeper to wake";
  L.close();
  L.setTelemetry(nullptr);
}

TEST(BufferedLogTest, PublishIsAsymmetricOutsideTSan) {
  // The release publish is what ships; the seq_cst fallback must not be
  // what a Linux build measures without anyone noticing.
#if defined(VYRD_TEST_TSAN)
  EXPECT_FALSE(BufferedLog::asymmetricPublish());
#elif defined(__linux__)
  EXPECT_TRUE(BufferedLog::asymmetricPublish())
      << "membarrier registration failed: appends pay a full fence";
#else
  GTEST_SKIP() << "membarrier is Linux-only";
#endif
}

TEST(BufferedLogTest, EveryAppendIsCountedAsMergedWithALiveReader) {
  // flushed_records is counted by whichever thread ran the merge round,
  // reader or flusher; together they account for every append.
  Telemetry T;
  BufferedLog::Options O;
  O.ShardCapacity = 64;
  BufferedLog L(O);
  L.setTelemetry(&T);
  uint64_t Read = 0;
  std::thread Reader([&] {
    std::vector<Action> Batch;
    while (L.nextBatch(Batch, 32))
      Read += Batch.size();
  });
  produce(L, 4, 3000);
  L.close();
  Reader.join();
  EXPECT_EQ(Read, 12000u);
  TelemetrySnapshot S = T.snapshot();
  EXPECT_EQ(L.appendCount(), 12000u);
  EXPECT_EQ(S.counter(Counter::C_FlushedRecords), L.appendCount());
  EXPECT_EQ(S.histo(Histo::H_FlushBatch).Sum, 12000u);
  L.setTelemetry(nullptr);
}

TEST(BufferedLogTest, FileRoundTripPreservesMergedOrder) {
  constexpr unsigned NumThreads = 4, Ops = 1000;
  std::string Path = tempPath("roundtrip");
  {
    BufferedLog::Options O;
    O.ShardCapacity = 32;
    O.FilePath = Path;
    O.RetainRecords = false; // file is the only sink
    BufferedLog L(O);
    ASSERT_TRUE(L.valid());
    produce(L, NumThreads, Ops);
    L.close();
    EXPECT_GT(L.byteCount(), 0u);
    Action A;
    EXPECT_FALSE(L.next(A)) << "RetainRecords=false keeps nothing";
  }
  std::vector<Action> Loaded;
  ASSERT_TRUE(loadLogFile(Path, Loaded));
  auditOrder(Loaded, NumThreads, Ops);
  std::remove(Path.c_str());
}

TEST(BufferedLogTest, InvalidFilePathReportsInvalid) {
  BufferedLog::Options O;
  O.FilePath = "/nonexistent-dir-xyz/file.bin";
  BufferedLog L(O);
  EXPECT_FALSE(L.valid());
  L.close();
}

TEST(BufferedLogTest, ManyLogsShareTheThreadShardCache) {
  // More live logs than thread-local cache ways: every append still lands
  // in the right log via the registry slow path.
  constexpr size_t NumLogs = 6;
  constexpr int Rounds = 50;
  std::vector<std::unique_ptr<BufferedLog>> Logs;
  for (size_t I = 0; I < NumLogs; ++I)
    Logs.push_back(std::make_unique<BufferedLog>());
  for (int R = 0; R < Rounds; ++R)
    for (auto &L : Logs)
      L->append(Action::commit(0));
  for (auto &L : Logs) {
    L->close();
    EXPECT_EQ(L->appendCount(), static_cast<uint64_t>(Rounds));
    Action A;
    uint64_t Expected = 0;
    while (L->next(A))
      EXPECT_EQ(A.Seq, Expected++);
    EXPECT_EQ(Expected, static_cast<uint64_t>(Rounds));
  }
}

TEST(BufferedLogTest, WriterIsStablePerThread) {
  BufferedLog L;
  LogWriter &W1 = L.writer();
  LogWriter &W2 = L.writer();
  EXPECT_EQ(&W1, &W2);
  LogWriter *Other = nullptr;
  std::thread T([&] { Other = &L.writer(); });
  T.join();
  EXPECT_NE(&W1, Other) << "each thread gets its own shard";
  EXPECT_EQ(L.shardCount(), 2u);
  L.close();
}
