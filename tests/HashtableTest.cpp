//===- HashtableTest.cpp - Tests for the Hashtable model --------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "javalib/HashtableSpec.h"
#include "javalib/SyncHashtable.h"
#include "vyrd/Auto.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::javalib;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

//===----------------------------------------------------------------------===//
// Sequential semantics
//===----------------------------------------------------------------------===//

TEST(SyncHashtableTest, PutGetRemove) {
  SyncHashtable T({}, Hooks());
  EXPECT_TRUE(T.get(1).isNull());
  EXPECT_TRUE(T.put(1, 10).isNull());
  EXPECT_EQ(T.get(1), Value(10));
  EXPECT_EQ(T.put(1, 20), Value(10)) << "put returns the previous value";
  EXPECT_EQ(T.get(1), Value(20));
  EXPECT_EQ(T.remove(1), Value(20));
  EXPECT_TRUE(T.get(1).isNull());
  EXPECT_TRUE(T.remove(1).isNull());
}

TEST(SyncHashtableTest, SizeTracksMappings) {
  SyncHashtable T({}, Hooks());
  EXPECT_EQ(T.size(), 0);
  T.put(1, 1);
  T.put(2, 2);
  T.put(1, 3); // overwrite, no growth
  EXPECT_EQ(T.size(), 2);
  T.remove(2);
  EXPECT_EQ(T.size(), 1);
}

TEST(SyncHashtableTest, PutIfAbsentSemantics) {
  SyncHashtable T({}, Hooks());
  EXPECT_TRUE(T.putIfAbsent(5, 50));
  EXPECT_FALSE(T.putIfAbsent(5, 60));
  EXPECT_EQ(T.get(5), Value(50)) << "loser must not overwrite";
}

TEST(SyncHashtableTest, CollidingKeysCoexist) {
  SyncHashtable::Options O;
  O.Buckets = 2; // force collisions
  SyncHashtable T(O, Hooks());
  for (int64_t K = 0; K < 20; ++K)
    T.put(K, K * 7);
  for (int64_t K = 0; K < 20; ++K)
    EXPECT_EQ(T.get(K), Value(K * 7)) << "key " << K;
  EXPECT_EQ(T.size(), 20);
}

TEST(SyncHashtableTest, NegativeKeys) {
  SyncHashtable T({}, Hooks());
  T.put(-42, 7);
  EXPECT_EQ(T.get(-42), Value(7));
  EXPECT_EQ(T.remove(-42), Value(7));
}

TEST(SyncHashtableTest, BuggyPutIfAbsentSequentiallyCorrect) {
  SyncHashtable::Options O;
  O.BuggyPutIfAbsent = true;
  SyncHashtable T(O, Hooks());
  EXPECT_TRUE(T.putIfAbsent(5, 50));
  EXPECT_FALSE(T.putIfAbsent(5, 60));
  EXPECT_EQ(T.get(5), Value(50));
}

//===----------------------------------------------------------------------===//
// Spec
//===----------------------------------------------------------------------===//

TEST(HashtableSpecTest, PutRequiresCorrectPreviousValue) {
  HashtableSpec S;
  HtVocab V = HtVocab::get();
  View ViewS;
  EXPECT_TRUE(
      S.applyMutator(V.Put, {Value(1), Value(10)}, Value(), ViewS));
  EXPECT_FALSE(S.applyMutator(V.Put, {Value(1), Value(20)}, Value(), ViewS))
      << "previous value was 10, not null";
  EXPECT_TRUE(
      S.applyMutator(V.Put, {Value(1), Value(20)}, Value(10), ViewS));
}

TEST(HashtableSpecTest, PutIfAbsentTrueRequiresAbsence) {
  HashtableSpec S;
  HtVocab V = HtVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.PutIfAbsent, {Value(1), Value(10)},
                             Value(true), ViewS));
  EXPECT_FALSE(S.applyMutator(V.PutIfAbsent, {Value(1), Value(20)},
                              Value(true), ViewS))
      << "claiming insertion of a present key is the bug's signature";
  EXPECT_TRUE(S.applyMutator(V.PutIfAbsent, {Value(1), Value(20)},
                             Value(false), ViewS));
  EXPECT_FALSE(S.applyMutator(V.PutIfAbsent, {Value(2), Value(20)},
                              Value(false), ViewS))
      << "failing on an absent key is impossible";
}

TEST(HashtableSpecTest, RemoveReturnsMapping) {
  HashtableSpec S;
  HtVocab V = HtVocab::get();
  View ViewS;
  S.applyMutator(V.Put, {Value(3), Value(33)}, Value(), ViewS);
  EXPECT_FALSE(S.applyMutator(V.Remove, {Value(3)}, Value(34), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Remove, {Value(3)}, Value(33), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Remove, {Value(3)}, Value(), ViewS));
}

TEST(HashtableSpecTest, Observers) {
  HashtableSpec S;
  HtVocab V = HtVocab::get();
  View ViewS;
  S.applyMutator(V.Put, {Value(1), Value(10)}, Value(), ViewS);
  EXPECT_TRUE(S.returnAllowed(V.Get, {Value(1)}, Value(10)));
  EXPECT_FALSE(S.returnAllowed(V.Get, {Value(1)}, Value(11)));
  EXPECT_TRUE(S.returnAllowed(V.Get, {Value(2)}, Value()));
  EXPECT_TRUE(S.returnAllowed(V.Size, {}, Value(1)));
}

//===----------------------------------------------------------------------===//
// Replayer
//===----------------------------------------------------------------------===//

TEST(HashtableReplayerTest, WritesMaintainView) {
  auto R = KeyValueReplayer::map("ht");
  View ViewI = View::digestOnly();
  R->applyUpdate(Action::write(0, HtVocab::slotName(1), Value(10)), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(1), Value(10)}}), *R));
  R->applyUpdate(Action::write(0, HtVocab::slotName(1), Value(20)), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value(1), Value(20)}}), *R));
  R->applyUpdate(Action::write(0, HtVocab::slotName(1), Value()), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, View(), *R));
}

TEST(HashtableReplayerTest, NegativeKeyNamesParse) {
  auto R = KeyValueReplayer::map("ht");
  View ViewI = View::digestOnly();
  R->applyUpdate(Action::write(0, HtVocab::slotName(-7), Value(3)), ViewI);
  EXPECT_TRUE(
      viewMatches(ViewI, viewOf({{Value(int64_t{-7}), Value(3)}}), *R));
}

TEST(HashtableReplayerTest, IncrementalMatchesRebuild) {
  auto R = KeyValueReplayer::map("ht");
  View Inc = View::digestOnly(), Expected;
  for (int64_t K = -5; K < 5; ++K) {
    R->applyUpdate(Action::write(0, HtVocab::slotName(K), Value(K * 2)),
                   Inc);
    if (K != 0)
      Expected.add(Value(K), Value(K * 2));
  }
  R->applyUpdate(Action::write(0, HtVocab::slotName(0), Value()), Inc);
  EXPECT_TRUE(viewMatches(Inc, Expected, *R));
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runHt(bool Buggy, RunMode Mode, unsigned Threads,
                     unsigned Ops, uint64_t Seed) {
  ScenarioOptions SO;
  SO.Prog = Program::P_Hashtable;
  SO.Mode = Mode;
  SO.Buggy = Buggy;
  SO.StopAtFirstViolation = Buggy;
  SO.AuditPeriod = Buggy ? 0 : 256;
  Scenario S = makeScenario(SO);
  Chaos::enable(4, Seed);
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = Ops;
  WO.KeyPoolSize = 12;
  WO.Seed = Seed;
  if (Buggy)
    WO.StopOnViolation = S.V;
  runWorkload(WO, S.Op);
  Chaos::disable();
  return S.Finish();
}

} // namespace

TEST(HashtableVerifiedTest, CorrectRunsClean) {
  for (uint64_t Seed : {1, 2, 3}) {
    VerifierReport R = runHt(false, RunMode::RM_OnlineView, 8, 300, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(HashtableVerifiedTest, CorrectRunsCleanIOMode) {
  VerifierReport R = runHt(false, RunMode::RM_OnlineIO, 8, 300, 5);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(HashtableVerifiedTest, CheckThenActBugCaught) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runHt(true, RunMode::RM_OnlineView, 8, 400, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "check-then-act bug not detected in 30 seeds";
}

TEST(HashtableVerifiedTest, CheckThenActBugCaughtByIOMode) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runHt(true, RunMode::RM_OnlineIO, 8, 800, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}
