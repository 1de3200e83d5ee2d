//===- MultiObjectTest.cpp - Multi-object engine and checker pool ----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Tests for the multi-object verification engine (Sec. 6.2: the log is
// demultiplexed per object and refinement is checked object by object):
// registration, per-object routing and attribution, interleaved and
// overlapping records of different objects on one thread, the checker
// pool, the unrouted-record diagnostic and VerifierConfig::validate.
//
//===----------------------------------------------------------------------===//

#include "multiset/ArrayMultiset.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <thread>

using namespace vyrd;
using namespace vyrd::multiset;

namespace {

std::unique_ptr<Spec> spec() { return std::make_unique<MultisetSpec>(); }

std::unique_ptr<Replayer> replayer() {
  return KeyValueReplayer::guardedBag("A");
}

/// Registers \p N multiset objects named "obj0".."objN-1" and returns
/// their hooks. View refinement unless \p IO.
std::vector<Hooks> registerN(Verifier &V, size_t N, bool IO = false) {
  std::vector<Hooks> H;
  for (size_t I = 0; I < N; ++I)
    H.push_back(V.registerObject("obj" + std::to_string(I), spec(),
                                 IO ? nullptr : replayer()));
  return H;
}

/// Runs a few clean operations against a multiset bound to \p H.
void driveClean(Hooks H, unsigned Ops, int64_t KeyBase = 0) {
  ArrayMultiset::Options MO;
  MO.Capacity = 16;
  ArrayMultiset M(MO, H);
  for (unsigned I = 0; I < Ops; ++I) {
    M.insert(KeyBase + I % 5);
    M.lookUp(KeyBase + I % 5);
    if (I % 3 == 0)
      M.remove(KeyBase + I % 5);
  }
}

const ObjectReport *findObject(const VerifierReport &R,
                               const std::string &Name) {
  for (const ObjectReport &O : R.Objects)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

} // namespace

TEST(MultiObjectTest, ThreeObjectsOneVerifierCleanRun) {
  VerifierConfig VC;
  VC.Online = true;
  Verifier V(VC);
  std::vector<Hooks> H = registerN(V, 3);
  ASSERT_EQ(V.objectCount(), 3u);
  V.start();
  for (size_t I = 0; I < H.size(); ++I)
    driveClean(H[I], 60, static_cast<int64_t>(I) * 100);
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  ASSERT_EQ(R.Objects.size(), 3u);
  uint64_t Sum = 0;
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(R.Objects[I].Id, I);
    EXPECT_EQ(R.Objects[I].Name, "obj" + std::to_string(I));
    EXPECT_GT(R.Objects[I].Records, 0u);
    EXPECT_GT(R.Objects[I].Stats.MethodsChecked, 0u);
    Sum += R.Objects[I].Records;
  }
  // Every log record was routed to exactly one object.
  EXPECT_EQ(Sum, R.LogRecords);
}

TEST(MultiObjectTest, HooksStampTheirObjectId) {
  VerifierConfig VC;
  Verifier V(VC);
  std::vector<Hooks> H = registerN(V, 3);
  EXPECT_EQ(H[0].object(), 0u);
  EXPECT_EQ(H[1].object(), 1u);
  EXPECT_EQ(H[2].object(), 2u);
  EXPECT_EQ(V.hooks(2).object(), 2u);
  EXPECT_EQ(V.hooks().object(), 0u);
  V.start();
  EXPECT_TRUE(V.finish().ok());
}

TEST(MultiObjectTest, SameThreadInterleavedObjects) {
  // One thread alternates calls on two objects: the records interleave in
  // the shared log but each object's checker must see a clean stream.
  VerifierConfig VC;
  Verifier V(VC);
  std::vector<Hooks> H = registerN(V, 2);
  V.start();
  ArrayMultiset::Options MO;
  MO.Capacity = 16;
  ArrayMultiset A(MO, H[0]), B(MO, H[1]);
  for (unsigned I = 0; I < 40; ++I) {
    A.insert(I % 5);
    B.insert(I % 7);
    A.remove(I % 5);
    B.lookUp(I % 7);
  }
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_GT(R.Objects[0].Records, 0u);
  EXPECT_GT(R.Objects[1].Records, 0u);
}

TEST(MultiObjectTest, OverlappingCommitBlocksOfDifferentObjects) {
  // A single thread holds object A's commit block open while object B
  // begins, commits and ends its own: the demultiplexer must keep the
  // bracket pairing per object. Records are emitted by hand, mimicking
  // the multiset's insert protocol on each object.
  VerifierConfig VC;
  Verifier V(VC);
  std::vector<Hooks> H = registerN(V, 2);
  V.start();
  Vocab Voc = Vocab::get();
  Hooks A = H[0], B = H[1];
  A.call(Voc.Insert, {Value(int64_t(1))});
  A.write(Vocab::eltName(0), Value(int64_t(1)));
  B.call(Voc.Insert, {Value(int64_t(2))});
  B.write(Vocab::eltName(0), Value(int64_t(2)));
  A.blockBegin();
  B.blockBegin(); // B's block opens inside A's
  A.write(Vocab::validName(0), Value(true));
  B.write(Vocab::validName(0), Value(true));
  A.commit();
  B.commit();
  A.blockEnd();
  B.blockEnd();
  A.ret(Voc.Insert, Value(true));
  B.ret(Voc.Insert, Value(true));
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Objects[0].Stats.MethodsChecked, 1u);
  EXPECT_EQ(R.Objects[1].Stats.MethodsChecked, 1u);
}

TEST(MultiObjectTest, ViolationAttributedToTheRightObject) {
  // A successful Delete of an element that was never inserted is a
  // deterministic refinement violation; seed it on "alpha" only and keep
  // "beta" busy with clean traffic. The violation must carry alpha's id
  // and name, and beta's report must stay clean.
  VerifierConfig VC;
  VC.Checker.Mode = CheckMode::CM_IORefinement;
  VC.Checker.ContextRecords = 8;
  Verifier V(VC);
  Hooks Alpha = V.registerObject("alpha", spec(), nullptr);
  Hooks Beta = V.registerObject("beta", spec(), nullptr);
  V.start();
  Vocab Voc = Vocab::get();
  Beta.call(Voc.Insert, {Value(int64_t(5))});
  Beta.commit();
  Beta.ret(Voc.Insert, Value(true));
  Alpha.call(Voc.Delete, {Value(int64_t(999))});
  Alpha.commit();
  Alpha.ret(Voc.Delete, Value(true)); // claims success: mismatch
  Beta.call(Voc.LookUp, {Value(int64_t(5))}); // observer: no commit
  Beta.ret(Voc.LookUp, Value(true));
  VerifierReport R = V.finish();
  ASSERT_FALSE(R.ok());
  for (const Violation &Vi : R.Violations) {
    EXPECT_EQ(Vi.Obj, Alpha.object());
    EXPECT_EQ(Vi.Object.str(), "alpha");
    EXPECT_NE(Vi.str().find("[alpha]"), std::string::npos) << Vi.str();
    // The attached context is the per-object stream: alpha's Delete, none
    // of beta's records.
    EXPECT_NE(Vi.Context.find("Delete"), std::string::npos) << Vi.Context;
    EXPECT_EQ(Vi.Context.find("Insert"), std::string::npos) << Vi.Context;
  }
  const ObjectReport *A = findObject(R, "alpha");
  const ObjectReport *B = findObject(R, "beta");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_FALSE(A->ok());
  EXPECT_EQ(A->Violations.front().Kind, ViolationKind::VK_MutatorMismatch);
  EXPECT_TRUE(B->ok());
}

TEST(MultiObjectTest, CheckerPoolCleanRunUnderContention) {
  // Four objects, four application threads, four checker workers: the
  // pool must preserve per-object order (any reordering would produce
  // spurious violations) and shut down cleanly. Also the TSan target for
  // the pool's hand-off protocol.
  VerifierConfig VC;
  VC.Online = true;
  VC.CheckerThreads = 4;
  Verifier V(VC);
  std::vector<Hooks> H = registerN(V, 4);
  V.start();
  ArrayMultiset::Options MO;
  MO.Capacity = 16; // must match the registered replayers' shadow capacity
  std::vector<std::unique_ptr<ArrayMultiset>> Ms;
  for (unsigned I = 0; I < 4; ++I)
    Ms.push_back(std::make_unique<ArrayMultiset>(MO, H[I]));
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < 4; ++T)
    Ts.emplace_back([&Ms, T] {
      // Every thread touches every object.
      for (unsigned I = 0; I < 200; ++I) {
        ArrayMultiset &M = *Ms[(T + I) % 4];
        M.insert(I % 6);
        M.lookUp(I % 6);
        if (I % 3 == 0)
          M.remove(I % 6);
      }
    });
  for (auto &T : Ts)
    T.join();
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  ASSERT_EQ(R.Objects.size(), 4u);
  for (const ObjectReport &O : R.Objects)
    EXPECT_GT(O.Records, 0u);
}

TEST(MultiObjectTest, PoolVerdictMatchesInlineVerdict) {
  // The same seeded record stream must produce the same violations
  // whether checked inline or on a pool.
  auto run = [](unsigned Threads) {
    VerifierConfig VC;
    VC.Online = true;
    VC.CheckerThreads = Threads;
    VC.Checker.Mode = CheckMode::CM_IORefinement;
    Verifier V(VC);
    Hooks A = V.registerObject("a", spec(), nullptr);
    Hooks B = V.registerObject("b", spec(), nullptr);
    V.start();
    Vocab Voc = Vocab::get();
    for (int I = 0; I < 50; ++I) {
      B.call(Voc.Insert, {Value(int64_t(I))});
      B.commit();
      B.ret(Voc.Insert, Value(true));
    }
    A.call(Voc.Delete, {Value(int64_t(999))});
    A.commit();
    A.ret(Voc.Delete, Value(true));
    return V.finish();
  };
  VerifierReport Inline = run(1), Pooled = run(4);
  ASSERT_EQ(Inline.Violations.size(), Pooled.Violations.size());
  for (size_t I = 0; I < Inline.Violations.size(); ++I) {
    EXPECT_EQ(Inline.Violations[I].Kind, Pooled.Violations[I].Kind);
    EXPECT_EQ(Inline.Violations[I].Obj, Pooled.Violations[I].Obj);
  }
}

TEST(MultiObjectTest, UnroutedRecordsReportInstrumentationViolation) {
  // A record stamped with an id no registered object owns (hooks
  // outliving their verifier, or corruption) must not vanish silently.
  VerifierConfig VC;
  VC.Checker.Mode = CheckMode::CM_IORefinement;
  Verifier V(VC);
  (void)V.registerObject("only", spec(), nullptr);
  V.start();
  Action Stray = Action::commit(0);
  Stray.Obj = 7;
  V.log().append(Stray);
  VerifierReport R = V.finish();
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(V.violationSeen());
  EXPECT_EQ(R.Violations.front().Kind, ViolationKind::VK_Instrumentation);
  EXPECT_NE(R.Violations.front().Message.find("unregistered"),
            std::string::npos)
      << R.Violations.front().Message;
}

TEST(MultiObjectTest, ReportJsonListsEveryObject) {
  VerifierConfig VC;
  Verifier V(VC);
  std::vector<Hooks> H = registerN(V, 3);
  V.start();
  driveClean(H[1], 20);
  VerifierReport R = V.finish();
  std::string J = R.json();
  EXPECT_NE(J.find("\"objects\":["), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"obj0\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"name\":\"obj2\""), std::string::npos) << J;
}

//===----------------------------------------------------------------------===//
// VerifierConfig::validate
//===----------------------------------------------------------------------===//

TEST(VerifierConfigValidate, AcceptsDefaults) {
  EXPECT_EQ(VerifierConfig().validate(), "");
}

TEST(VerifierConfigValidate, RejectsZeroCheckerThreads) {
  VerifierConfig VC;
  VC.CheckerThreads = 0;
  EXPECT_NE(VC.validate().find("CheckerThreads"), std::string::npos);
}

TEST(VerifierConfigValidate, RejectsOfflinePool) {
  VerifierConfig VC;
  VC.Online = false;
  VC.CheckerThreads = 2;
  EXPECT_NE(VC.validate().find("Online"), std::string::npos);
  VC.Online = true;
  EXPECT_EQ(VC.validate(), "");
}

TEST(VerifierConfigValidate, RejectsZeroShardBufferedBackend) {
  VerifierConfig VC;
  VC.ShardCapacity = 0;
  EXPECT_NE(VC.validate().find("ShardCapacity"), std::string::npos);
}

TEST(VerifierConfigValidate, RejectsZeroMaxViolations) {
  VerifierConfig VC;
  VC.Checker.MaxViolations = 0;
  EXPECT_NE(VC.validate().find("MaxViolations"), std::string::npos);
}

TEST(VerifierConfigValidate, RejectsWatchdogWithoutTelemetry) {
  VerifierConfig VC;
  VC.Telemetry.WatchdogQuietMs = 100;
  EXPECT_NE(VC.validate().find("Telemetry.Enabled"), std::string::npos);
  VC.Telemetry.Enabled = true;
  EXPECT_EQ(VC.validate(), "");
}
