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

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <thread>

using namespace vyrd;

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
