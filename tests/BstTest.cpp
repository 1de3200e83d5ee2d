//===- BstTest.cpp - Tests for the BST multiset ----------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "bst/BstMultiset.h"
#include "bst/BstReplayer.h"
#include "bst/BstSpec.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::bst;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

//===----------------------------------------------------------------------===//
// Sequential semantics
//===----------------------------------------------------------------------===//

TEST(BstMultisetTest, InsertLookupDelete) {
  BstMultiset B({}, Hooks());
  EXPECT_FALSE(B.lookUp(10));
  EXPECT_TRUE(B.insert(10));
  EXPECT_TRUE(B.lookUp(10));
  EXPECT_TRUE(B.remove(10));
  EXPECT_FALSE(B.lookUp(10));
  EXPECT_FALSE(B.remove(10));
}

TEST(BstMultisetTest, DuplicatesCounted) {
  BstMultiset B({}, Hooks());
  EXPECT_TRUE(B.insert(5));
  EXPECT_TRUE(B.insert(5));
  EXPECT_TRUE(B.remove(5));
  EXPECT_TRUE(B.lookUp(5));
  EXPECT_TRUE(B.remove(5));
  EXPECT_FALSE(B.lookUp(5));
}

TEST(BstMultisetTest, ManyKeysBothSides) {
  BstMultiset B({}, Hooks());
  for (int I = -50; I <= 50; ++I)
    EXPECT_TRUE(B.insert(I * 7 % 101));
  for (int I = -50; I <= 50; ++I)
    EXPECT_TRUE(B.lookUp(I * 7 % 101));
}

TEST(BstMultisetTest, CompressSplicesEmptyNodes) {
  BstMultiset B({}, Hooks());
  B.insert(10);
  B.insert(5);
  B.insert(15);
  B.remove(5);
  // One compress call splices the empty leaf 5.
  EXPECT_TRUE(B.compress());
  EXPECT_TRUE(B.lookUp(10));
  EXPECT_TRUE(B.lookUp(15));
  EXPECT_FALSE(B.lookUp(5));
}

TEST(BstMultisetTest, CompressWithNoCandidatesReturnsFalse) {
  BstMultiset B({}, Hooks());
  B.insert(10);
  EXPECT_FALSE(B.compress());
}

TEST(BstMultisetTest, CompressSplicesNodeWithOneChild) {
  BstMultiset B({}, Hooks());
  B.insert(10);
  B.insert(5);
  B.insert(3); // 5 has one child (3)
  B.remove(5);
  EXPECT_TRUE(B.compress());
  EXPECT_TRUE(B.lookUp(3)) << "subtree survives the splice";
  EXPECT_TRUE(B.lookUp(10));
}

//===----------------------------------------------------------------------===//
// Spec
//===----------------------------------------------------------------------===//

TEST(BstSpecTest, CompressIsIdentity) {
  BstSpec S;
  BstVocab V = BstVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.Insert, {Value(1)}, Value(true), ViewS));
  auto D = ViewS.digest();
  EXPECT_TRUE(S.applyMutator(V.Compress, {}, Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Compress, {}, Value(false), ViewS));
  EXPECT_EQ(ViewS.digest(), D);
}

TEST(BstSpecTest, DeleteSemantics) {
  BstSpec S;
  BstVocab V = BstVocab::get();
  View ViewS;
  EXPECT_FALSE(S.applyMutator(V.Delete, {Value(1)}, Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Delete, {Value(1)}, Value(false), ViewS));
  S.applyMutator(V.Insert, {Value(1)}, Value(true), ViewS);
  EXPECT_TRUE(S.applyMutator(V.Delete, {Value(1)}, Value(true), ViewS));
  EXPECT_EQ(S.count(1), 0u);
}

//===----------------------------------------------------------------------===//
// Replayer
//===----------------------------------------------------------------------===//

namespace {

Action nodeOp(uint64_t Id, int64_t Key) {
  return Action::replayOp(0, BstVocab::get().OpNode,
                          {Value(static_cast<int64_t>(Id)), Value(Key)});
}
Action linkOp(uint64_t P, int Dir, uint64_t C) {
  return Action::replayOp(0, BstVocab::get().OpLink,
                          {Value(static_cast<int64_t>(P)), Value(Dir),
                           C ? Value(static_cast<int64_t>(C)) : Value()});
}
Action countOp(uint64_t Id, int64_t N) {
  return Action::replayOp(0, BstVocab::get().OpCount,
                          {Value(static_cast<int64_t>(Id)), Value(N)});
}

} // namespace

TEST(BstReplayerTest, LinkedNodeContributesToView) {
  BstReplayer R;
  View ViewI = View::digestOnly();
  R.applyUpdate(nodeOp(2, 42), ViewI);
  EXPECT_TRUE(ViewI.empty()) << "unlinked node invisible";
  R.applyUpdate(linkOp(1, 1, 2), ViewI);
  R.applyUpdate(countOp(2, 1), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(42), Value()}}), R));
}

TEST(BstReplayerTest, OverwrittenLinkDetachesSubtree) {
  BstReplayer R;
  View ViewI = View::digestOnly();
  R.applyUpdate(nodeOp(2, 10), ViewI);
  R.applyUpdate(linkOp(1, 1, 2), ViewI);
  R.applyUpdate(countOp(2, 1), ViewI);
  R.applyUpdate(nodeOp(3, 20), ViewI);
  R.applyUpdate(linkOp(2, 1, 3), ViewI); // 20 under 10
  R.applyUpdate(countOp(3, 1), ViewI);
  EXPECT_EQ(ViewI.size(), 2u);
  // Lost-update overwrite: the root link now points to a fresh node 4.
  R.applyUpdate(nodeOp(4, 30), ViewI);
  R.applyUpdate(linkOp(1, 1, 4), ViewI);
  R.applyUpdate(countOp(4, 1), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(30), Value()}}), R))
      << "subtree detached";
}

TEST(BstReplayerTest, CountChangesAdjustMultiplicity) {
  BstReplayer R;
  View ViewI = View::digestOnly();
  R.applyUpdate(nodeOp(2, 7), ViewI);
  R.applyUpdate(linkOp(1, 1, 2), ViewI);
  R.applyUpdate(countOp(2, 3), ViewI);
  EXPECT_TRUE(viewMatches(
      ViewI,
      viewOf({{Value(7), Value()}, {Value(7), Value()}, {Value(7), Value()}}),
      R));
  R.applyUpdate(countOp(2, 1), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(7), Value()}}), R));
}

TEST(BstReplayerTest, IncrementalMatchesRebuild) {
  BstReplayer R;
  View Inc = View::digestOnly();
  R.applyUpdate(nodeOp(2, 10), Inc);
  R.applyUpdate(linkOp(1, 1, 2), Inc);
  R.applyUpdate(countOp(2, 2), Inc);
  R.applyUpdate(nodeOp(3, 5), Inc);
  R.applyUpdate(linkOp(2, 0, 3), Inc);
  R.applyUpdate(countOp(3, 1), Inc);
  EXPECT_TRUE(viewMatches(Inc,
                          viewOf({{Value(10), Value()},
                                  {Value(10), Value()},
                                  {Value(5), Value()}}),
                          R));
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runBst(bool Buggy, RunMode Mode, unsigned Threads,
                      unsigned Ops, uint64_t Seed) {
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetBst;
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
  WO.BackgroundOp = S.BackgroundOp;
  if (Buggy)
    WO.StopOnViolation = S.V;
  runWorkload(WO, S.Op);
  Chaos::disable();
  return S.Finish();
}

} // namespace

TEST(BstVerifiedTest, CorrectConcurrentRunWithCompressionIsClean) {
  for (uint64_t Seed : {1, 2, 3}) {
    VerifierReport R = runBst(false, RunMode::RM_OnlineView, 8, 300, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(BstVerifiedTest, CorrectRunCleanIOMode) {
  VerifierReport R = runBst(false, RunMode::RM_OnlineIO, 8, 300, 11);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(BstVerifiedTest, BuggyInsertCaughtByViewRefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runBst(true, RunMode::RM_OnlineView, 8, 400, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "lost-update insert bug not detected in 30 seeds";
}

TEST(BstVerifiedTest, BuggyInsertCaughtByIORefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runBst(true, RunMode::RM_OnlineIO, 8, 1500, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}
