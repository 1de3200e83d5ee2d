//===- SegmentLogTest.cpp - Log segmentation and chain walking -------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the segmented log format (docs/LOGFORMAT.md, v4): rotation into
/// numbered segment files, transparent chain walking in LogFileReader /
/// loadLogFile, self-contained segments (per-segment header and name
/// table), checked-prefix reclamation, and the promise that unsegmented
/// output stays byte-compatible v3.
///
//===----------------------------------------------------------------------===//

#include "vyrd/BufferedLog.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>
#include <thread>

using namespace vyrd;

namespace {

std::string tempPath(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-segtest-" + Tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// Removes a chain's base path and any plausible segment files.
void removeChain(const std::string &Base) {
  std::remove(Base.c_str());
  for (uint64_t I = 1; I <= 64; ++I)
    std::remove(logSegmentPath(Base, I).c_str());
}

/// Appends \p N call/return pairs with a string payload (so segments
/// fill quickly) through \p L. Sequence numbers come out 0..2N-1.
void appendPairs(Log &L, size_t N) {
  Name M = internName("seg.op");
  for (size_t I = 0; I < N; ++I) {
    L.append(Action::call(1, M, {Value("payload-padding-string"),
                                 Value(static_cast<int64_t>(I))}));
    L.append(Action::ret(1, M, Value(static_cast<int64_t>(I))));
  }
}

/// A log writing a segment chain at \p Base.
BufferedLog::Options segmented(const std::string &Base,
                               uint64_t SegmentBytes, bool Reclaim = false) {
  BufferedLog::Options O;
  O.FilePath = Base;
  O.Backpressure.SegmentBytes = SegmentBytes;
  O.Backpressure.ReclaimSegments = Reclaim;
  return O;
}

/// Reads \p N records back: the flusher hands a record to the reader
/// only after writing it, so this is the barrier after which the first
/// \p N records are in the chain.
void awaitWritten(BufferedLog &L, size_t N) {
  Action A;
  for (size_t I = 0; I < N; ++I)
    ASSERT_TRUE(L.next(A));
}

} // namespace

TEST(SegmentLogTest, FileLogRotatesIntoNumberedSegments) {
  std::string Base = tempPath("rotate");
  removeChain(Base);
  {
    BufferedLog L(segmented(Base, 512));
    ASSERT_TRUE(L.valid());
    appendPairs(L, 100);
    L.close();
  }
  // A chain, not a plain file: base absent, numbered segments present.
  EXPECT_FALSE(fileExists(Base));
  ASSERT_TRUE(fileExists(logSegmentPath(Base, 1)));
  ASSERT_TRUE(fileExists(logSegmentPath(Base, 2)))
      << "512-byte segments must have rotated at least once for 200 "
         "records with string payloads";
  removeChain(Base);
}

TEST(SegmentLogTest, LoadLogFileWalksTheChainFromTheBasePath) {
  std::string Base = tempPath("walk");
  removeChain(Base);
  {
    BufferedLog L(segmented(Base, 512));
    ASSERT_TRUE(L.valid());
    appendPairs(L, 100);
    L.close();
  }
  std::vector<Action> Got;
  ASSERT_TRUE(loadLogFile(Base, Got))
      << "opening the chain's base path must fall back to segment 1";
  ASSERT_EQ(Got.size(), 200u);
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(Got[I].Seq, I);
  EXPECT_EQ(Got[199].Ret.asInt(), 99);
  removeChain(Base);
}

TEST(SegmentLogTest, SegmentsAreSelfContained) {
  std::string Base = tempPath("selfcontained");
  removeChain(Base);
  {
    BufferedLog L(segmented(Base, 512));
    ASSERT_TRUE(L.valid());
    appendPairs(L, 100);
    L.close();
  }
  // Opening segment 2 directly must decode: its header carries the chain
  // position and it re-interns every name it uses.
  LogFileReader R(logSegmentPath(Base, 2));
  ASSERT_TRUE(R.valid());
  EXPECT_EQ(R.version(), LogSegmentVersion);
  EXPECT_EQ(R.segmentIndex(), 2u);
  Action A;
  ASSERT_TRUE(R.next(A));
  EXPECT_GT(A.Seq, 0u) << "segment 2 starts mid-log";
  uint64_t First = A.Seq;
  uint64_t Count = 1;
  uint64_t Last = A.Seq;
  while (R.next(A)) {
    EXPECT_EQ(A.Seq, Last + 1) << "chain walk must stay dense";
    Last = A.Seq;
    ++Count;
  }
  EXPECT_FALSE(R.malformed());
  EXPECT_EQ(Last, 199u) << "reader walked to the end of the chain";
  EXPECT_EQ(Count, 200 - First);
  removeChain(Base);
}

TEST(SegmentLogTest, ReclaimDeletesFullyCheckedSegmentsOnly) {
  std::string Base = tempPath("reclaim");
  removeChain(Base);
  BufferedLog L(segmented(Base, 512, /*Reclaim=*/true));
  ASSERT_TRUE(L.valid());
  appendPairs(L, 100);
  awaitWritten(L, 200);

  // Nothing checked yet: nothing may disappear.
  L.reclaimCheckedPrefix(0);
  EXPECT_TRUE(fileExists(logSegmentPath(Base, 1)));

  // Everything checked: closed prefix segments go, the active one stays.
  L.reclaimCheckedPrefix(200);
  EXPECT_FALSE(fileExists(logSegmentPath(Base, 1)));
  BackpressureStats S = L.backpressureStats();
  EXPECT_GE(S.SegmentsCreated, 2u);
  EXPECT_GE(S.SegmentsReclaimed, 1u);
  EXPECT_LT(S.SegmentsReclaimed, S.SegmentsCreated)
      << "the active segment is never deleted";
  L.close();
  removeChain(Base);
}

TEST(SegmentLogTest, ReclaimRespectsTheWatermark) {
  std::string Base = tempPath("watermark");
  removeChain(Base);
  BufferedLog L(segmented(Base, 512, /*Reclaim=*/true));
  ASSERT_TRUE(L.valid());
  appendPairs(L, 100);
  awaitWritten(L, 200);
  // A watermark inside the log only releases segments entirely below it.
  L.reclaimCheckedPrefix(10);
  std::vector<Action> Got;
  LogFileReader R(Base);
  ASSERT_TRUE(R.valid());
  Action A;
  ASSERT_TRUE(R.next(A));
  EXPECT_LT(A.Seq, 10u)
      << "records at/after the watermark must still be on disk";
  L.close();
  removeChain(Base);
}

TEST(SegmentLogTest, BufferedLogRotatesAndReloads) {
  std::string Base = tempPath("buffered");
  removeChain(Base);
  constexpr size_t PerThread = 200;
  {
    BufferedLog L(segmented(Base, 1024));
    ASSERT_TRUE(L.valid());
    std::vector<std::thread> Ts;
    for (int T = 0; T < 2; ++T)
      Ts.emplace_back([&L] { appendPairs(L, PerThread / 2); });
    for (auto &T : Ts)
      T.join();
    // Drain the reader queue (records are retained by default).
    Action A;
    size_t Read = 0;
    L.close();
    while (L.next(A))
      ++Read;
    EXPECT_EQ(Read, 2 * PerThread);
  }
  EXPECT_TRUE(fileExists(logSegmentPath(Base, 1)));
  std::vector<Action> Got;
  ASSERT_TRUE(loadLogFile(Base, Got));
  ASSERT_EQ(Got.size(), 2 * PerThread);
  for (size_t I = 0; I < Got.size(); ++I)
    EXPECT_EQ(Got[I].Seq, I);
  removeChain(Base);
}

TEST(SegmentLogTest, UnsegmentedOutputStaysPlainV3) {
  std::string Path = tempPath("plain");
  std::remove(Path.c_str());
  {
    BufferedLog::Options O;
    O.FilePath = Path; // no SegmentBytes: one plain file
    BufferedLog L(O);
    ASSERT_TRUE(L.valid());
    appendPairs(L, 5);
    L.close();
  }
  EXPECT_TRUE(fileExists(Path));
  EXPECT_FALSE(fileExists(logSegmentPath(Path, 1)));
  LogFileReader R(Path);
  ASSERT_TRUE(R.valid());
  EXPECT_EQ(R.version(), LogFormatVersion);
  EXPECT_EQ(R.segmentIndex(), 0u) << "plain files are not chains";
  std::vector<Action> Got;
  ASSERT_TRUE(loadLogFile(Path, Got));
  EXPECT_EQ(Got.size(), 10u);
  std::remove(Path.c_str());
}

TEST(SegmentLogTest, SegmentPathHelpersRoundTrip) {
  EXPECT_EQ(logSegmentPath("/tmp/x.bin", 1), "/tmp/x.bin.000001");
  EXPECT_EQ(logSegmentPath("/tmp/x.bin", 123456), "/tmp/x.bin.123456");
  std::string Base;
  uint64_t Index = 0;
  ASSERT_TRUE(splitLogSegmentPath("/tmp/x.bin.000042", Base, Index));
  EXPECT_EQ(Base, "/tmp/x.bin");
  EXPECT_EQ(Index, 42u);
  EXPECT_FALSE(splitLogSegmentPath("/tmp/x.bin", Base, Index));
  EXPECT_FALSE(splitLogSegmentPath("/tmp/x.12345", Base, Index))
      << "five digits is not a segment suffix";
}
