//===- MultisetTest.cpp - Tests for the array multiset ---------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "multiset/ArrayMultiset.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Auto.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::multiset;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

namespace {

ArrayMultiset::Options opts(size_t Cap, bool Buggy = false) {
  ArrayMultiset::Options O;
  O.Capacity = Cap;
  O.BuggyFindSlot = Buggy;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Sequential semantics (uninstrumented)
//===----------------------------------------------------------------------===//

TEST(ArrayMultisetTest, InsertThenLookUp) {
  ArrayMultiset M(opts(8), Hooks());
  EXPECT_FALSE(M.lookUp(5));
  EXPECT_TRUE(M.insert(5));
  EXPECT_TRUE(M.lookUp(5));
}

TEST(ArrayMultisetTest, DeleteRemovesOneOccurrence) {
  ArrayMultiset M(opts(8), Hooks());
  EXPECT_TRUE(M.insert(5));
  EXPECT_TRUE(M.insert(5));
  EXPECT_TRUE(M.remove(5));
  EXPECT_TRUE(M.lookUp(5)) << "one copy remains";
  EXPECT_TRUE(M.remove(5));
  EXPECT_FALSE(M.lookUp(5));
  EXPECT_FALSE(M.remove(5)) << "now absent";
}

TEST(ArrayMultisetTest, InsertFailsWhenFull) {
  ArrayMultiset M(opts(2), Hooks());
  EXPECT_TRUE(M.insert(1));
  EXPECT_TRUE(M.insert(2));
  EXPECT_FALSE(M.insert(3));
}

TEST(ArrayMultisetTest, InsertPairAddsBoth) {
  ArrayMultiset M(opts(8), Hooks());
  EXPECT_TRUE(M.insertPair(10, 20));
  EXPECT_TRUE(M.lookUp(10));
  EXPECT_TRUE(M.lookUp(20));
}

TEST(ArrayMultisetTest, InsertPairFailureLeavesNoTrace) {
  ArrayMultiset M(opts(1), Hooks()); // room for one only
  EXPECT_FALSE(M.insertPair(10, 20));
  EXPECT_FALSE(M.lookUp(10)) << "all-or-nothing";
  EXPECT_FALSE(M.lookUp(20));
  EXPECT_TRUE(M.insert(30)) << "the reserved slot was released";
}

TEST(ArrayMultisetTest, SlotsAreReusedAfterDelete) {
  ArrayMultiset M(opts(2), Hooks());
  EXPECT_TRUE(M.insert(1));
  EXPECT_TRUE(M.insert(2));
  EXPECT_TRUE(M.remove(1));
  EXPECT_TRUE(M.insert(3));
  EXPECT_TRUE(M.lookUp(3));
}

//===----------------------------------------------------------------------===//
// Specification semantics
//===----------------------------------------------------------------------===//

TEST(MultisetSpecTest, InsertSuccessAddsToView) {
  MultisetSpec S;
  Vocab V = Vocab::get();
  View ViewS = View::digestOnly();
  S.buildView(ViewS);
  EXPECT_TRUE(S.applyMutator(V.Insert, {Value(5)}, Value(true), ViewS));
  EXPECT_EQ(S.count(5), 1u);
  EXPECT_TRUE(viewMatches(ViewS, viewOf({{Value(5), Value()}}), S));
}

TEST(MultisetSpecTest, InsertFailureIsAllowedAndNoOp) {
  MultisetSpec S;
  Vocab V = Vocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.Insert, {Value(5)}, Value(false), ViewS));
  EXPECT_EQ(S.count(5), 0u);
}

TEST(MultisetSpecTest, DeleteSuccessRequiresPresence) {
  MultisetSpec S;
  Vocab V = Vocab::get();
  View ViewS;
  EXPECT_FALSE(S.applyMutator(V.Delete, {Value(5)}, Value(true), ViewS))
      << "successful delete of absent element is a violation";
  EXPECT_TRUE(S.applyMutator(V.Delete, {Value(5)}, Value(false), ViewS))
      << "failed delete is always permitted";
}

TEST(MultisetSpecTest, InsertPairAllOrNothing) {
  MultisetSpec S;
  Vocab V = Vocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.InsertPair, {Value(1), Value(2)},
                             Value(true), ViewS));
  EXPECT_EQ(S.count(1), 1u);
  EXPECT_EQ(S.count(2), 1u);
  EXPECT_TRUE(S.applyMutator(V.InsertPair, {Value(3), Value(4)},
                             Value(false), ViewS));
  EXPECT_EQ(S.count(3), 0u);
}

TEST(MultisetSpecTest, LookUpReturnAllowed) {
  MultisetSpec S;
  Vocab V = Vocab::get();
  View ViewS;
  EXPECT_TRUE(S.returnAllowed(V.LookUp, {Value(9)}, Value(false)));
  EXPECT_FALSE(S.returnAllowed(V.LookUp, {Value(9)}, Value(true)));
  S.applyMutator(V.Insert, {Value(9)}, Value(true), ViewS);
  EXPECT_TRUE(S.returnAllowed(V.LookUp, {Value(9)}, Value(true)));
  EXPECT_FALSE(S.returnAllowed(V.LookUp, {Value(9)}, Value(false)));
}

TEST(MultisetSpecTest, UnknownMethodRejected) {
  MultisetSpec S;
  View ViewS;
  EXPECT_FALSE(
      S.applyMutator(internName("Bogus"), {}, Value(true), ViewS));
}

//===----------------------------------------------------------------------===//
// Replayer semantics
//===----------------------------------------------------------------------===//

TEST(MultisetReplayerTest, ValidBitTogglesViewMembership) {
  auto R = KeyValueReplayer::guardedBag("A");
  View ViewI = View::digestOnly();
  R->buildView(ViewI);
  EXPECT_TRUE(ViewI.empty());
  R->applyUpdate(Action::write(0, Vocab::eltName(2), Value(42)), ViewI);
  EXPECT_TRUE(ViewI.empty()) << "reserved but not valid";
  R->applyUpdate(Action::write(0, Vocab::validName(2), Value(true)), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(42), Value()}}), *R));
  R->applyUpdate(Action::write(0, Vocab::validName(2), Value(false)),
                 ViewI);
  EXPECT_TRUE(ViewI.empty());
}

TEST(MultisetReplayerTest, OverwriteOfPublishedSlotSwapsViewEntry) {
  auto R = KeyValueReplayer::guardedBag("A");
  View ViewI = View::digestOnly();
  R->applyUpdate(Action::write(0, Vocab::eltName(0), Value(1)), ViewI);
  R->applyUpdate(Action::write(0, Vocab::validName(0), Value(true)), ViewI);
  // A buggy interleaving overwrites a published slot:
  R->applyUpdate(Action::write(1, Vocab::eltName(0), Value(2)), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(2), Value()}}), *R));
}

TEST(MultisetReplayerTest, IncrementalMatchesRebuild) {
  auto R = KeyValueReplayer::guardedBag("A");
  View Inc;
  for (int I = 0; I < 8; ++I) {
    R->applyUpdate(Action::write(0, Vocab::eltName(I), Value(I * 11)), Inc);
    if (I % 2 == 0)
      R->applyUpdate(Action::write(0, Vocab::validName(I), Value(true)),
                     Inc);
  }
  View Fresh;
  R->buildView(Fresh);
  EXPECT_TRUE(Inc.deepEquals(Fresh));
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

/// Runs the multiset scenario and returns the report.
VerifierReport runMultiset(bool Buggy, RunMode Mode, unsigned Threads,
                           unsigned Ops, uint64_t Seed,
                           bool StopAtFirst = false) {
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = Mode;
  SO.Buggy = Buggy;
  SO.StopAtFirstViolation = StopAtFirst;
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

TEST(MultisetVerifiedTest, CorrectConcurrentRunIsCleanViewMode) {
  for (uint64_t Seed : {1, 2, 3}) {
    VerifierReport R =
        runMultiset(false, RunMode::RM_OnlineView, 8, 300, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
    EXPECT_GT(R.Stats.MethodsChecked, 0u);
  }
}

TEST(MultisetVerifiedTest, CorrectConcurrentRunIsCleanIOMode) {
  for (uint64_t Seed : {4, 5}) {
    VerifierReport R =
        runMultiset(false, RunMode::RM_OnlineIO, 8, 300, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(MultisetVerifiedTest, CorrectRunCleanOffline) {
  VerifierReport R = runMultiset(false, RunMode::RM_OfflineView, 4, 200, 7);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(MultisetVerifiedTest, BuggyFindSlotCaughtByViewRefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R =
        runMultiset(true, RunMode::RM_OnlineView, 8, 400, Seed, true);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "Fig. 5 bug not detected in 30 seeds";
}

TEST(MultisetVerifiedTest, BuggyFindSlotCaughtByIORefinement) {
  // I/O refinement needs an observer to witness the lost update, so it
  // typically takes longer (Table 1); give it more budget.
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R =
        runMultiset(true, RunMode::RM_OnlineIO, 8, 1500, Seed, true);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "Fig. 5 bug not detected by I/O mode in 30 seeds";
}

TEST(MultisetVerifiedTest, BuggyRunWithoutEarlyStopTerminates) {
  // Regression: under the injected FindSlot race, InsertPair's two
  // FindSlot calls could hand out the *same* slot (a concurrent buggy
  // reservation overwrote it and was then released), and the two-lock
  // publish block self-deadlocked. A full-length buggy run with no
  // early stop must terminate.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    ScenarioOptions SO;
    SO.Prog = Program::P_MultisetVector;
    SO.Mode = RunMode::RM_LogOnlyView;
    SO.Buggy = true;
    Scenario S = makeScenario(SO);
    Chaos::enable(3, Seed);
    WorkloadOptions WO;
    WO.Threads = 8;
    WO.OpsPerThread = 250;
    WO.KeyPoolSize = 16;
    WO.Seed = Seed;
    WorkloadResult R = runWorkload(WO, S.Op);
    Chaos::disable();
    EXPECT_EQ(R.OpsIssued, 8u * 250u);
    (void)S.Finish();
  }
}

TEST(MultisetVerifiedTest, SequentialVerifiedRunChecksAllMethods) {
  VerifierReport R = runMultiset(false, RunMode::RM_OnlineView, 1, 500, 9);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 500u);
}
