//===- LogTest.cpp - Unit tests for the log with and without a file -------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// MemoryLogTest exercises BufferedLog without a file sink, FileLogTest
// with one (BufferedLogTest.cpp covers ordering under concurrency).
//
//===----------------------------------------------------------------------===//

#include "vyrd/BufferedLog.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

using namespace vyrd;

namespace {

std::string tempPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-logtest-" + Tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

BufferedLog::Options fileOptions(const std::string &Path,
                                 bool RetainRecords = true) {
  BufferedLog::Options O;
  O.FilePath = Path;
  O.RetainRecords = RetainRecords;
  return O;
}

} // namespace

TEST(MemoryLogTest, ConcurrentAppendersGetUniqueSeqs) {
  BufferedLog L;
  constexpr int PerThread = 500;
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I)
        L.append(Action::commit(0));
    });
  for (auto &T : Ts)
    T.join();
  L.close();
  EXPECT_EQ(L.appendCount(), 4u * PerThread);
  Action A;
  uint64_t Expected = 0;
  while (L.next(A))
    EXPECT_EQ(A.Seq, Expected++);
  EXPECT_EQ(Expected, 4u * PerThread);
}

TEST(FileLogTest, TailServesOnlineReader) {
  std::string Path = tempPath("tail");
  BufferedLog L(fileOptions(Path));
  ASSERT_TRUE(L.valid());
  Name M = internName("FileM");
  L.append(Action::call(2, M, {Value(1)}));
  L.append(Action::ret(2, M, Value(true)));
  L.close();
  Action A;
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_Call);
  ASSERT_TRUE(L.next(A));
  EXPECT_FALSE(L.next(A));
  std::remove(Path.c_str());
}

TEST(FileLogTest, ByteCountGrows) {
  std::string Path = tempPath("bytes");
  BufferedLog L(fileOptions(Path));
  ASSERT_TRUE(L.valid());
  // A fresh file already holds the format header (docs/LOGFORMAT.md):
  // 4 magic bytes + 1 version varint.
  EXPECT_EQ(L.byteCount(), 5u);
  // A record reaches the reader only after the flusher wrote it, so
  // next() is the barrier that makes the byte count observable.
  Action A;
  L.append(Action::commit(0));
  ASSERT_TRUE(L.next(A));
  uint64_t B1 = L.byteCount();
  EXPECT_GT(B1, 5u);
  L.append(Action::commit(0));
  ASSERT_TRUE(L.next(A));
  EXPECT_GT(L.byteCount(), B1);
  L.close();
  std::remove(Path.c_str());
}

TEST(FileLogTest, NoTailModeRetainsNothingButStillWritesFile) {
  std::string Path = tempPath("notail");
  {
    BufferedLog L(fileOptions(Path, /*RetainRecords=*/false));
    ASSERT_TRUE(L.valid());
    for (int I = 0; I < 10; ++I)
      L.append(Action::commit(0));
    L.close();
    Action A;
    EXPECT_FALSE(L.next(A)) << "no records kept";
    EXPECT_EQ(L.appendCount(), 10u);
  }
  std::vector<Action> Loaded;
  ASSERT_TRUE(loadLogFile(Path, Loaded));
  EXPECT_EQ(Loaded.size(), 10u);
  std::remove(Path.c_str());
}

TEST(MemoryLogTest, TryNextDrainsTailThenSignalsEnd) {
  BufferedLog L;
  L.append(Action::commit(1));
  L.append(Action::commit(2));
  L.close();
  // After close the pending records must still drain before End is
  // reported.
  Action A;
  bool End = true;
  ASSERT_TRUE(L.tryNext(A, End));
  EXPECT_EQ(A.Tid, 1u);
  EXPECT_FALSE(End);
  ASSERT_TRUE(L.tryNext(A, End));
  EXPECT_EQ(A.Tid, 2u);
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_TRUE(End);
}

TEST(MemoryLogTest, NextBatchDrainsUpToMax) {
  BufferedLog L;
  for (int I = 0; I < 7; ++I)
    L.append(Action::commit(0));
  L.close();
  std::vector<Action> Batch;
  ASSERT_TRUE(L.nextBatch(Batch, 5));
  EXPECT_EQ(Batch.size(), 5u);
  EXPECT_EQ(Batch[4].Seq, 4u);
  ASSERT_TRUE(L.nextBatch(Batch, 5));
  EXPECT_EQ(Batch.size(), 2u);
  EXPECT_FALSE(L.nextBatch(Batch, 5));
  EXPECT_TRUE(Batch.empty());
}

TEST(FileLogTest, NoTailTryNextSignalsEndOnlyAfterClose) {
  std::string Path = tempPath("notail-signal");
  BufferedLog L(fileOptions(Path, /*RetainRecords=*/false));
  ASSERT_TRUE(L.valid());
  L.append(Action::commit(0));
  // Without retained records nothing is ever readable, but the reader
  // must still be told "not yet" until the log closes, and "end" after.
  Action A;
  bool End = true;
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_FALSE(End);
  L.close();
  EXPECT_FALSE(L.tryNext(A, End));
  EXPECT_TRUE(End);
  std::remove(Path.c_str());
}

TEST(FileLogTest, NoTailNextBatchReportsEndAfterClose) {
  std::string Path = tempPath("notail-batch");
  BufferedLog L(fileOptions(Path, /*RetainRecords=*/false));
  ASSERT_TRUE(L.valid());
  for (int I = 0; I < 3; ++I)
    L.append(Action::commit(0));
  L.close();
  std::vector<Action> Batch;
  EXPECT_FALSE(L.nextBatch(Batch, 16));
  EXPECT_TRUE(Batch.empty());
  EXPECT_EQ(L.appendCount(), 3u);
  std::remove(Path.c_str());
}

TEST(FileLogTest, LoadLogFileFailsOnMissingFile) {
  std::vector<Action> Loaded;
  EXPECT_FALSE(loadLogFile("/nonexistent-dir-xyz/file.bin", Loaded));
}
