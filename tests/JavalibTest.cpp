//===- JavalibTest.cpp - Tests for the Vector/StringBuffer models ---------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "javalib/StringBufferSpec.h"
#include "javalib/StringBufferSystem.h"
#include "javalib/SyncVector.h"
#include "javalib/VectorSpec.h"
#include "vyrd/Auto.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::javalib;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

//===----------------------------------------------------------------------===//
// SyncVector sequential semantics
//===----------------------------------------------------------------------===//

TEST(SyncVectorTest, AddGetSize) {
  SyncVector V({}, Hooks());
  EXPECT_EQ(V.size(), 0);
  V.add(10);
  V.add(20);
  EXPECT_EQ(V.size(), 2);
  EXPECT_EQ(V.get(0), Value(10));
  EXPECT_EQ(V.get(1), Value(20));
  EXPECT_TRUE(V.get(2).isNull());
  EXPECT_TRUE(V.get(-1).isNull());
}

TEST(SyncVectorTest, RemoveLastReturnsValueOrNull) {
  SyncVector V({}, Hooks());
  EXPECT_TRUE(V.removeLast().isNull());
  V.add(1);
  V.add(2);
  EXPECT_EQ(V.removeLast(), Value(2));
  EXPECT_EQ(V.removeLast(), Value(1));
  EXPECT_TRUE(V.removeLast().isNull());
}

TEST(SyncVectorTest, LastIndexOfFindsLastOccurrence) {
  SyncVector V({}, Hooks());
  V.add(5);
  V.add(6);
  V.add(5);
  EXPECT_EQ(V.lastIndexOf(5), 2);
  EXPECT_EQ(V.lastIndexOf(6), 1);
  EXPECT_EQ(V.lastIndexOf(7), -1);
}

TEST(SyncVectorTest, BuggyLastIndexOfIsSequentiallyCorrect) {
  SyncVector::Options O;
  O.BuggyLastIndexOf = true;
  SyncVector V(O, Hooks());
  V.add(5);
  V.add(6);
  EXPECT_EQ(V.lastIndexOf(5), 0) << "the bug needs concurrency to fire";
}

//===----------------------------------------------------------------------===//
// VectorSpec / VectorReplayer
//===----------------------------------------------------------------------===//

TEST(VectorSpecTest, RemoveLastRequiresMatchingValue) {
  VectorSpec S;
  VectorVocab V = VectorVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.Add, {Value(1)}, Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Add, {Value(2)}, Value(true), ViewS));
  EXPECT_FALSE(S.applyMutator(V.RemoveLast, {}, Value(1), ViewS))
      << "2 is at the back";
  EXPECT_TRUE(S.applyMutator(V.RemoveLast, {}, Value(2), ViewS));
  EXPECT_TRUE(S.applyMutator(V.RemoveLast, {}, Value(1), ViewS));
  EXPECT_TRUE(S.applyMutator(V.RemoveLast, {}, Value(), ViewS))
      << "empty pop returns null";
}

TEST(VectorSpecTest, IndexErrorNeverAllowed) {
  VectorSpec S;
  VectorVocab V = VectorVocab::get();
  EXPECT_FALSE(
      S.returnAllowed(V.LastIndexOf, {Value(9)}, Value(IndexError)));
  EXPECT_TRUE(S.returnAllowed(V.LastIndexOf, {Value(9)}, Value(-1)));
}

TEST(VectorSpecTest, GetAndSizeObservers) {
  VectorSpec S;
  VectorVocab V = VectorVocab::get();
  View ViewS;
  S.applyMutator(V.Add, {Value(4)}, Value(true), ViewS);
  EXPECT_TRUE(S.returnAllowed(V.Get, {Value(0)}, Value(4)));
  EXPECT_FALSE(S.returnAllowed(V.Get, {Value(0)}, Value(5)));
  EXPECT_TRUE(S.returnAllowed(V.Get, {Value(3)}, Value()));
  EXPECT_TRUE(S.returnAllowed(V.Size, {}, Value(1)));
  EXPECT_FALSE(S.returnAllowed(V.Size, {}, Value(2)));
}

TEST(VectorReplayerTest, LenWritesMoveEntriesInAndOut) {
  auto R = KeyValueReplayer::prefixVec("vec");
  View ViewI = View::digestOnly();
  R->applyUpdate(Action::write(0, VectorVocab::elemName(0), Value(10)),
                 ViewI);
  EXPECT_TRUE(ViewI.empty()) << "slot beyond logical length";
  R->applyUpdate(Action::write(0, VectorVocab::lenName(), Value(1)), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(0), Value(10)}}), *R));
  R->applyUpdate(Action::write(0, VectorVocab::lenName(), Value(0)), ViewI);
  EXPECT_TRUE(ViewI.empty());
}

TEST(VectorReplayerTest, IncrementalMatchesRebuild) {
  auto R = KeyValueReplayer::prefixVec("vec");
  View Inc;
  for (int I = 0; I < 6; ++I) {
    R->applyUpdate(
        Action::write(0, VectorVocab::elemName(I), Value(I * 3)), Inc);
    R->applyUpdate(Action::write(0, VectorVocab::lenName(), Value(I + 1)),
                   Inc);
  }
  R->applyUpdate(Action::write(0, VectorVocab::lenName(), Value(4)), Inc);
  View Fresh;
  R->buildView(Fresh);
  EXPECT_TRUE(Inc.deepEquals(Fresh)) << View::diff(Inc, Fresh);
}

//===----------------------------------------------------------------------===//
// StringBufferSystem sequential semantics
//===----------------------------------------------------------------------===//

TEST(StringBufferTest, AppendAndToString) {
  StringBufferSystem SB({}, Hooks());
  SB.append(0, "foo");
  SB.append(0, "bar");
  EXPECT_EQ(SB.toString(0), "foobar");
  EXPECT_EQ(SB.length(0), 6);
  EXPECT_EQ(SB.toString(1), "");
}

TEST(StringBufferTest, AppendBufferCopiesContents) {
  StringBufferSystem SB({}, Hooks());
  SB.append(0, "abc");
  SB.append(1, "XY");
  SB.appendBuffer(0, 1);
  EXPECT_EQ(SB.toString(0), "abcXY");
  EXPECT_EQ(SB.toString(1), "XY") << "source unchanged";
}

TEST(StringBufferTest, SetLengthTruncatesOnly) {
  StringBufferSystem SB({}, Hooks());
  SB.append(0, "abcdef");
  SB.setLength(0, 3);
  EXPECT_EQ(SB.toString(0), "abc");
  SB.setLength(0, 10); // no-op growth
  EXPECT_EQ(SB.toString(0), "abc");
}

TEST(StringBufferTest, BuggyAppendBufferSequentiallyCorrect) {
  StringBufferSystem::Options O;
  O.BuggyAppendBuffer = true;
  StringBufferSystem SB(O, Hooks());
  SB.append(1, "xyz");
  SB.appendBuffer(0, 1);
  EXPECT_EQ(SB.toString(0), "xyz") << "the bug needs concurrency to fire";
}

//===----------------------------------------------------------------------===//
// StringBufferSpec / replayer
//===----------------------------------------------------------------------===//

TEST(StringBufferSpecTest, AppendBufferUsesAbstractSource) {
  StringBufferSpec S(2);
  SbVocab V = SbVocab::get();
  View ViewS;
  S.buildView(ViewS); // initial entries
  EXPECT_TRUE(S.applyMutator(V.Append, {Value(1), Value("src")},
                             Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.AppendBuffer, {Value(0), Value(1)},
                             Value(true), ViewS));
  EXPECT_EQ(S.contents(0), "src");
  EXPECT_TRUE(S.returnAllowed(V.ToString, {Value(0)}, Value("src")));
  EXPECT_FALSE(S.returnAllowed(V.ToString, {Value(0)}, Value("sr?")));
}

TEST(StringBufferSpecTest, LengthObserver) {
  StringBufferSpec S(1);
  SbVocab V = SbVocab::get();
  View ViewS;
  S.buildView(ViewS);
  S.applyMutator(V.Append, {Value(0), Value("abcd")}, Value(true), ViewS);
  EXPECT_TRUE(S.returnAllowed(V.Length, {Value(0)}, Value(4)));
  EXPECT_FALSE(S.returnAllowed(V.Length, {Value(0)}, Value(3)));
}

TEST(StringBufferReplayerTest, TornAppendDivergesFromSpec) {
  // The replay record carries the actually-appended (torn) bytes; the
  // shadow then differs from what the spec computes.
  StringBufferReplayer R(2);
  StringBufferSpec S(2);
  SbVocab V = SbVocab::get();
  View ViewI, ViewS;
  R.buildView(ViewI);
  S.buildView(ViewS);
  ASSERT_TRUE(ViewI.deepEquals(ViewS));

  R.applyUpdate(Action::replayOp(0, V.OpAppend, {Value(1), Value("src")}),
                ViewI);
  S.applyMutator(V.Append, {Value(1), Value("src")}, Value(true), ViewS);
  EXPECT_TRUE(ViewI.deepEquals(ViewS));

  // appendBuffer(0, 1): the implementation actually appended "sr?".
  R.applyUpdate(Action::replayOp(0, V.OpAppend, {Value(0), Value("sr?")}),
                ViewI);
  S.applyMutator(V.AppendBuffer, {Value(0), Value(1)}, Value(true), ViewS);
  EXPECT_FALSE(ViewI.deepEquals(ViewS)) << "torn copy must diverge";
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runJava(Program P, bool Buggy, RunMode Mode,
                       unsigned Threads, unsigned Ops, uint64_t Seed) {
  ScenarioOptions SO;
  SO.Prog = P;
  SO.Mode = Mode;
  SO.Buggy = Buggy;
  SO.StopAtFirstViolation = Buggy;
  SO.AuditPeriod = Buggy ? 0 : 256;
  Scenario S = makeScenario(SO);
  Chaos::enable(4, Seed);
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = Ops;
  WO.KeyPoolSize = 16;
  WO.Seed = Seed;
  if (Buggy)
    WO.StopOnViolation = S.V;
  runWorkload(WO, S.Op);
  Chaos::disable();
  return S.Finish();
}

} // namespace

TEST(VectorVerifiedTest, CorrectRunsClean) {
  for (uint64_t Seed : {1, 2}) {
    VerifierReport R = runJava(Program::P_Vector, false,
                               RunMode::RM_OnlineView, 8, 300, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(VectorVerifiedTest, BuggyLastIndexOfCaught) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runJava(Program::P_Vector, true,
                               RunMode::RM_OnlineView, 8, 600, Seed);
    if (!R.ok()) {
      Caught = true;
      // The Vector bug is in an observer: it manifests as an observer
      // mismatch, not a view mismatch (Sec. 7.5's remark).
      EXPECT_EQ(R.Violations.front().Kind,
                ViolationKind::VK_ObserverMismatch)
          << R.Violations.front().str();
    }
  }
  EXPECT_TRUE(Caught) << "lastIndexOf bug not detected in 30 seeds";
}

TEST(VectorVerifiedTest, BuggyLastIndexOfCaughtByIOMode) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runJava(Program::P_Vector, true,
                               RunMode::RM_OnlineIO, 8, 600, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}

TEST(StringBufferVerifiedTest, CorrectRunsClean) {
  for (uint64_t Seed : {1, 2}) {
    VerifierReport R = runJava(Program::P_StringBuffer, false,
                               RunMode::RM_OnlineView, 8, 300, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(StringBufferVerifiedTest, WorkloadKeepsBuffersWithinTheLengthBound) {
  // The scenario's Op, driven on one thread for a fixed seed: no buffer may
  // outgrow stringBufferLengthBound(1). An op mix whose copies can feed on
  // each other grows buffers like Fibonacci numbers and fails this.
  ScenarioOptions SO;
  SO.Prog = Program::P_StringBuffer;
  SO.Mode = RunMode::RM_Bare;
  Scenario S = makeScenario(SO);
  auto SB = std::static_pointer_cast<StringBufferSystem>(S.Owned.back());
  size_t Longest = 0;
  WorkloadOptions WO;
  WO.Threads = 1;
  WO.OpsPerThread = 2400;
  WO.KeyPoolSize = 16;
  WO.Seed = 3;
  runWorkload(WO, [&](Rng &R, int64_t K1, int64_t K2, double Progress) {
    S.Op(R, K1, K2, Progress);
    for (size_t I = 0; I < SB->numBuffers(); ++I)
      Longest = std::max(Longest, static_cast<size_t>(SB->length(I)));
  });
  S.Finish();
  EXPECT_LE(Longest, stringBufferLengthBound(1));
}

TEST(StringBufferVerifiedTest, BuggyAppendCaughtByViewRefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runJava(Program::P_StringBuffer, true,
                               RunMode::RM_OnlineView, 8, 400, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "unprotected copy bug not detected in 30 seeds";
}

TEST(StringBufferVerifiedTest, BuggyAppendCaughtByIORefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runJava(Program::P_StringBuffer, true,
                               RunMode::RM_OnlineIO, 8, 1500, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}
