//===- QueueTest.cpp - Tests for the bounded two-lock queue ----------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "queue/BoundedQueue.h"
#include "queue/QueueSpec.h"
#include "vyrd/Auto.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::queue;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

//===----------------------------------------------------------------------===//
// Sequential semantics
//===----------------------------------------------------------------------===//

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue Q({}, Hooks());
  EXPECT_TRUE(Q.poll().isNull());
  EXPECT_TRUE(Q.offer(1));
  EXPECT_TRUE(Q.offer(2));
  EXPECT_TRUE(Q.offer(3));
  EXPECT_EQ(Q.poll(), Value(1));
  EXPECT_EQ(Q.poll(), Value(2));
  EXPECT_TRUE(Q.offer(4));
  EXPECT_EQ(Q.poll(), Value(3));
  EXPECT_EQ(Q.poll(), Value(4));
  EXPECT_TRUE(Q.poll().isNull());
}

TEST(BoundedQueueTest, CapacityBound) {
  BoundedQueue::Options O;
  O.Capacity = 2;
  BoundedQueue Q(O, Hooks());
  EXPECT_TRUE(Q.offer(1));
  EXPECT_TRUE(Q.offer(2));
  EXPECT_FALSE(Q.offer(3));
  EXPECT_EQ(Q.poll(), Value(1));
  EXPECT_TRUE(Q.offer(3));
}

TEST(BoundedQueueTest, PeekAndSize) {
  BoundedQueue Q({}, Hooks());
  EXPECT_TRUE(Q.peek().isNull());
  EXPECT_EQ(Q.size(), 0);
  Q.offer(7);
  Q.offer(8);
  EXPECT_EQ(Q.peek(), Value(7));
  EXPECT_EQ(Q.size(), 2);
  Q.poll();
  EXPECT_EQ(Q.peek(), Value(8));
}

TEST(BoundedQueueTest, DrainAndRefill) {
  BoundedQueue Q({}, Hooks());
  for (int Round = 0; Round < 3; ++Round) {
    for (int64_t I = 0; I < 10; ++I)
      EXPECT_TRUE(Q.offer(Round * 100 + I));
    for (int64_t I = 0; I < 10; ++I)
      EXPECT_EQ(Q.poll(), Value(Round * 100 + I));
    EXPECT_TRUE(Q.poll().isNull());
  }
}

TEST(BoundedQueueTest, BuggyPollSequentiallyCorrect) {
  BoundedQueue::Options O;
  O.BuggyPoll = true;
  BoundedQueue Q(O, Hooks());
  Q.offer(1);
  Q.offer(2);
  EXPECT_EQ(Q.poll(), Value(1));
  EXPECT_EQ(Q.poll(), Value(2));
}

//===----------------------------------------------------------------------===//
// Spec
//===----------------------------------------------------------------------===//

TEST(QueueSpecTest, PollMustDeliverFront) {
  QueueSpec S(8);
  QVocab V = QVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.Offer, {Value(1)}, Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Offer, {Value(2)}, Value(true), ViewS));
  EXPECT_FALSE(S.applyMutator(V.Poll, {}, Value(2), ViewS))
      << "front is 1";
  EXPECT_TRUE(S.applyMutator(V.Poll, {}, Value(1), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Poll, {}, Value(2), ViewS));
}

TEST(QueueSpecTest, PermissiveFailures) {
  QueueSpec S(1);
  QVocab V = QVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.Offer, {Value(1)}, Value(false), ViewS))
      << "spurious offer failure allowed";
  EXPECT_TRUE(S.applyMutator(V.Poll, {}, Value(), ViewS))
      << "spurious empty poll allowed";
  EXPECT_TRUE(S.applyMutator(V.Offer, {Value(1)}, Value(true), ViewS));
  EXPECT_FALSE(S.applyMutator(V.Offer, {Value(2)}, Value(true), ViewS))
      << "success beyond capacity is impossible";
}

TEST(QueueSpecTest, Observers) {
  QueueSpec S(8);
  QVocab V = QVocab::get();
  View ViewS;
  EXPECT_TRUE(S.returnAllowed(V.Peek, {}, Value()));
  EXPECT_TRUE(S.returnAllowed(V.Size, {}, Value(0)));
  S.applyMutator(V.Offer, {Value(5)}, Value(true), ViewS);
  EXPECT_TRUE(S.returnAllowed(V.Peek, {}, Value(5)));
  EXPECT_FALSE(S.returnAllowed(V.Peek, {}, Value()));
  EXPECT_TRUE(S.returnAllowed(V.Size, {}, Value(1)));
}

TEST(QueueSpecTest, ViewKeysAreAbsoluteIndices) {
  QueueSpec S(8);
  QVocab V = QVocab::get();
  View ViewS = View::digestOnly();
  S.applyMutator(V.Offer, {Value(10)}, Value(true), ViewS);
  S.applyMutator(V.Poll, {}, Value(10), ViewS);
  S.applyMutator(V.Offer, {Value(20)}, Value(true), ViewS);
  // The second element sits at absolute index 1, not 0: order history is
  // part of the view.
  EXPECT_TRUE(viewMatches(ViewS, viewOf({{Value(1), Value(20)}}), S));
}

//===----------------------------------------------------------------------===//
// Replayer
//===----------------------------------------------------------------------===//

TEST(QueueReplayerTest, MirrorsAppendsAndPops) {
  auto R = KeyValueReplayer::map("q");
  Name SetOp = internName("q.set");
  Name DelOp = internName("q.del");
  View ViewI = View::digestOnly();
  R->applyUpdate(Action::replayOp(0, SetOp, {Value(0), Value(1)}), ViewI);
  R->applyUpdate(Action::replayOp(0, SetOp, {Value(1), Value(2)}), ViewI);
  EXPECT_EQ(ViewI.size(), 2u);
  R->applyUpdate(Action::replayOp(0, DelOp, {Value(0)}), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(1), Value(2)}}), *R));
}

TEST(QueueReplayerTest, IncrementalMatchesRebuild) {
  auto R = KeyValueReplayer::map("q");
  Name SetOp = internName("q.set");
  Name DelOp = internName("q.del");
  View Inc = View::digestOnly(), Expected;
  for (int I = 0; I < 10; ++I) {
    R->applyUpdate(Action::replayOp(0, SetOp, {Value(I), Value(I * 7)}),
                   Inc);
    if (I >= 4)
      Expected.add(Value(I), Value(I * 7));
  }
  for (int I = 0; I < 4; ++I)
    R->applyUpdate(Action::replayOp(0, DelOp, {Value(I)}), Inc);
  EXPECT_TRUE(viewMatches(Inc, Expected, *R));
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runQ(bool Buggy, RunMode Mode, unsigned Threads,
                    unsigned Ops, uint64_t Seed) {
  ScenarioOptions SO;
  SO.Prog = Program::P_Queue;
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

TEST(QueueVerifiedTest, CorrectRunsClean) {
  for (uint64_t Seed : {1, 2, 3}) {
    VerifierReport R = runQ(false, RunMode::RM_OnlineView, 8, 300, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(QueueVerifiedTest, CorrectRunsCleanIOMode) {
  VerifierReport R = runQ(false, RunMode::RM_OnlineIO, 8, 300, 5);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(QueueVerifiedTest, StalePollBugCaughtByViewRefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runQ(true, RunMode::RM_OnlineView, 8, 400, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "stale-poll bug not detected in 30 seeds";
}

TEST(QueueVerifiedTest, StalePollBugCaughtEquallyFastByIOMode) {
  // The queue bug is visible in poll's own return value: I/O refinement
  // needs no extra observer luck — it detects at the same commit view
  // refinement does (the complementary case to Table 1's asymmetry).
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runQ(true, RunMode::RM_OnlineIO, 8, 400, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}
