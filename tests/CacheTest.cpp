//===- CacheTest.cpp - Tests for ChunkManager and BoxCache -----------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "cache/BoxCache.h"
#include "cache/CacheSpec.h"
#include "chunk/ChunkManager.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::cache;
using namespace vyrd::chunk;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

//===----------------------------------------------------------------------===//
// ChunkManager
//===----------------------------------------------------------------------===//

TEST(ChunkManagerTest, AllocateReadWrite) {
  ChunkManager CM;
  uint64_t H = CM.allocate();
  Bytes Out;
  uint64_t Ver = 99;
  ASSERT_TRUE(CM.read(H, Out, &Ver));
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(Ver, 0u);
  EXPECT_TRUE(CM.write(H, {1, 2, 3}));
  ASSERT_TRUE(CM.read(H, Out, &Ver));
  EXPECT_EQ(Out, (Bytes{1, 2, 3}));
  EXPECT_EQ(Ver, 1u);
}

TEST(ChunkManagerTest, VersionBumpsPerWrite) {
  ChunkManager CM;
  uint64_t H = CM.allocate();
  for (int I = 1; I <= 5; ++I)
    CM.write(H, {static_cast<uint8_t>(I)});
  Bytes Out;
  uint64_t Ver = 0;
  CM.read(H, Out, &Ver);
  EXPECT_EQ(Ver, 5u);
}

TEST(ChunkManagerTest, UnknownHandleRejected) {
  ChunkManager CM;
  Bytes Out;
  EXPECT_FALSE(CM.read(12345, Out));
  EXPECT_FALSE(CM.write(12345, {1}));
}

TEST(ChunkManagerTest, HandlesAreUniqueAndOrdered) {
  ChunkManager CM;
  uint64_t A = CM.allocate(), B = CM.allocate(), C = CM.allocate();
  EXPECT_LT(A, B);
  EXPECT_LT(B, C);
  EXPECT_EQ(CM.handles(), (std::vector<uint64_t>{A, B, C}));
  EXPECT_EQ(CM.chunkCount(), 3u);
}

//===----------------------------------------------------------------------===//
// BoxCache sequential semantics
//===----------------------------------------------------------------------===//

namespace {

BoxCache::Options cacheOpts(bool Buggy = false) {
  BoxCache::Options O;
  O.ChunkSize = 64;
  O.BuggyUnprotectedCopy = Buggy;
  return O;
}

} // namespace

TEST(BoxCacheTest, WriteDirtiesReadHits) {
  ChunkManager CM;
  uint64_t H = CM.allocate();
  BoxCache C(CM, cacheOpts(), Hooks());
  C.write(H, {9, 9});
  EXPECT_EQ(C.dirtyCount(), 1u);
  Bytes Out;
  ASSERT_TRUE(C.read(H, Out));
  EXPECT_EQ(Out, (Bytes{9, 9}));
  // Not yet in the chunk manager.
  Bytes CmOut;
  CM.read(H, CmOut);
  EXPECT_TRUE(CmOut.empty());
}

TEST(BoxCacheTest, FlushWritesBackAndCleans) {
  ChunkManager CM;
  uint64_t H = CM.allocate();
  BoxCache C(CM, cacheOpts(), Hooks());
  C.write(H, {1, 2});
  EXPECT_EQ(C.flush(), 1u);
  EXPECT_EQ(C.dirtyCount(), 0u);
  EXPECT_EQ(C.cleanCount(), 1u);
  Bytes CmOut;
  CM.read(H, CmOut);
  EXPECT_EQ(CmOut, (Bytes{1, 2}));
}

TEST(BoxCacheTest, DirtyHitOverwritesInPlace) {
  ChunkManager CM;
  uint64_t H = CM.allocate();
  BoxCache C(CM, cacheOpts(), Hooks());
  C.write(H, {1});
  C.write(H, {2, 3}); // dirty hit (commit point 3)
  EXPECT_EQ(C.dirtyCount(), 1u);
  Bytes Out;
  C.read(H, Out);
  EXPECT_EQ(Out, (Bytes{2, 3}));
}

TEST(BoxCacheTest, CleanHitMovesBackToDirty) {
  ChunkManager CM;
  uint64_t H = CM.allocate();
  BoxCache C(CM, cacheOpts(), Hooks());
  C.write(H, {1});
  C.flush();
  C.write(H, {2}); // clean hit (commit point 2)
  EXPECT_EQ(C.cleanCount(), 0u);
  EXPECT_EQ(C.dirtyCount(), 1u);
}

TEST(BoxCacheTest, RevokeWritesBackOneEntry) {
  ChunkManager CM;
  uint64_t H1 = CM.allocate(), H2 = CM.allocate();
  BoxCache C(CM, cacheOpts(), Hooks());
  C.write(H1, {1});
  C.write(H2, {2});
  EXPECT_TRUE(C.revoke(H1));
  EXPECT_EQ(C.dirtyCount(), 1u) << "only H1 moved";
  EXPECT_EQ(C.cleanCount(), 1u);
  Bytes CmOut;
  CM.read(H1, CmOut);
  EXPECT_EQ(CmOut, (Bytes{1}));
  CM.read(H2, CmOut);
  EXPECT_TRUE(CmOut.empty()) << "H2 still only in the cache";
  EXPECT_FALSE(C.revoke(H1)) << "already clean";
  EXPECT_FALSE(C.revoke(424242));
}

TEST(CacheSpecTest, RevokeIsNoOp) {
  CacheSpec S({1});
  CacheVocab V = CacheVocab::get();
  View ViewS;
  S.buildView(ViewS);
  auto D = ViewS.digest();
  EXPECT_TRUE(S.applyMutator(V.Revoke, {Value(1)}, Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Revoke, {Value(1)}, Value(false), ViewS));
  EXPECT_EQ(ViewS.digest(), D);
}

TEST(BoxCacheTest, EvictDropsCleanOnly) {
  ChunkManager CM;
  uint64_t H1 = CM.allocate(), H2 = CM.allocate();
  BoxCache C(CM, cacheOpts(), Hooks());
  C.write(H1, {1});
  C.flush();
  C.write(H2, {2});
  EXPECT_EQ(C.evict(), 1u);
  EXPECT_EQ(C.cleanCount(), 0u);
  EXPECT_EQ(C.dirtyCount(), 1u);
  Bytes Out;
  ASSERT_TRUE(C.read(H1, Out)) << "refetched from the chunk manager";
  EXPECT_EQ(Out, (Bytes{1}));
}

TEST(BoxCacheTest, ReadMissInstallsCleanEntry) {
  ChunkManager CM;
  uint64_t H = CM.allocate();
  CM.write(H, {7});
  BoxCache C(CM, cacheOpts(), Hooks());
  Bytes Out;
  ASSERT_TRUE(C.read(H, Out));
  EXPECT_EQ(Out, (Bytes{7}));
  EXPECT_EQ(C.cleanCount(), 1u);
}

TEST(BoxCacheTest, ReadUnknownHandleFails) {
  ChunkManager CM;
  BoxCache C(CM, cacheOpts(), Hooks());
  Bytes Out;
  EXPECT_FALSE(C.read(424242, Out));
}

//===----------------------------------------------------------------------===//
// CacheSpec / CacheReplayer
//===----------------------------------------------------------------------===//

namespace {

Action op1(Name Op, uint64_t H) {
  return Action::replayOp(0, Op, {Value(static_cast<int64_t>(H))});
}
Action op2(Name Op, uint64_t H, Bytes B) {
  return Action::replayOp(
      0, Op, {Value(static_cast<int64_t>(H)), Value(std::move(B))});
}

} // namespace

TEST(CacheSpecTest, WriteUpdatesStoreAndView) {
  CacheSpec S({1, 2});
  CacheVocab V = CacheVocab::get();
  View ViewS;
  S.buildView(ViewS);
  EXPECT_EQ(ViewS.size(), 2u);
  EXPECT_TRUE(S.applyMutator(V.Write,
                             {Value(1), Value(Bytes{5})}, Value(true),
                             ViewS));
  ASSERT_NE(S.contents(1), nullptr);
  EXPECT_EQ(*S.contents(1), (Bytes{5}));
  EXPECT_TRUE(S.returnAllowed(V.Read, {Value(1)}, Value(Bytes{5})));
  EXPECT_FALSE(S.returnAllowed(V.Read, {Value(1)}, Value(Bytes{6})));
}

TEST(CacheSpecTest, FlushAndEvictAreNoOps) {
  CacheSpec S({1});
  CacheVocab V = CacheVocab::get();
  View ViewS;
  S.buildView(ViewS);
  auto D = ViewS.digest();
  EXPECT_TRUE(S.applyMutator(V.Flush, {}, Value(3), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Evict, {}, Value(0), ViewS));
  EXPECT_EQ(ViewS.digest(), D);
}

TEST(CacheReplayerTest, VisibilityFollowsEntryMembership) {
  CacheReplayer R({7});
  CacheVocab V = CacheVocab::get();
  View ViewI = View::digestOnly();
  R.buildView(ViewI);
  View Empty = viewOf({{Value(7), Value(Bytes{})}});
  View One = viewOf({{Value(7), Value(Bytes{1})}});
  EXPECT_TRUE(viewMatches(ViewI, Empty, R));

  R.applyUpdate(op1(V.OpNewEntry, 7), ViewI);
  R.applyUpdate(op2(V.OpCopy, 7, {1}), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, Empty, R)) << "entry invisible until listed";
  R.applyUpdate(op1(V.OpAddDirty, 7), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, One, R));

  // Flush: CM write + move to clean. Visible value unchanged.
  R.applyUpdate(op2(V.OpCmWrite, 7, {1}), ViewI);
  R.applyUpdate(op1(V.OpRemoveDirty, 7), ViewI);
  R.applyUpdate(op1(V.OpAddClean, 7), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, One, R));
  std::string Msg;
  EXPECT_TRUE(R.checkInvariants(Msg)) << Msg;

  // Evict: falls back to CM contents.
  R.applyUpdate(op1(V.OpRemoveClean, 7), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, One, R));
}

TEST(CacheReplayerTest, InvariantOneCatchesTornFlush) {
  CacheReplayer R({7});
  CacheVocab V = CacheVocab::get();
  View ViewI;
  R.buildView(ViewI);
  R.applyUpdate(op1(V.OpNewEntry, 7), ViewI);
  R.applyUpdate(op2(V.OpCopy, 7, {1, 1}), ViewI);
  R.applyUpdate(op1(V.OpAddDirty, 7), ViewI);
  // Torn flush: CM receives different bytes than the entry holds.
  R.applyUpdate(op2(V.OpCmWrite, 7, {1, 9}), ViewI);
  R.applyUpdate(op1(V.OpRemoveDirty, 7), ViewI);
  R.applyUpdate(op1(V.OpAddClean, 7), ViewI);
  std::string Msg;
  EXPECT_FALSE(R.checkInvariants(Msg));
  EXPECT_NE(Msg.find("invariant (i)"), std::string::npos) << Msg;
}

TEST(CacheReplayerTest, InvariantTwoCatchesDoubleListing) {
  CacheReplayer R({7});
  CacheVocab V = CacheVocab::get();
  View ViewI;
  R.buildView(ViewI);
  R.applyUpdate(op1(V.OpNewEntry, 7), ViewI);
  R.applyUpdate(op1(V.OpAddDirty, 7), ViewI);
  R.applyUpdate(op1(V.OpAddClean, 7), ViewI);
  std::string Msg;
  EXPECT_FALSE(R.checkInvariants(Msg));
  EXPECT_NE(Msg.find("invariant (ii)"), std::string::npos) << Msg;
}

TEST(CacheReplayerTest, IncrementalMatchesRebuild) {
  CacheReplayer R({1, 2, 3});
  CacheVocab V = CacheVocab::get();
  View Inc;
  R.buildView(Inc);
  R.applyUpdate(op1(V.OpNewEntry, 1), Inc);
  R.applyUpdate(op2(V.OpCopy, 1, {4}), Inc);
  R.applyUpdate(op1(V.OpAddDirty, 1), Inc);
  R.applyUpdate(op2(V.OpCmWrite, 2, {5, 5}), Inc);
  View Fresh;
  R.buildView(Fresh);
  EXPECT_TRUE(Inc.deepEquals(Fresh)) << View::diff(Inc, Fresh);
}

//===----------------------------------------------------------------------===//
// Dynamic-handle mode (used when clients allocate blocks at runtime)
//===----------------------------------------------------------------------===//

TEST(CacheDynamicTest, WriteRegistersUnknownHandles) {
  CacheSpec S; // dynamic
  CacheVocab V = CacheVocab::get();
  View ViewS = View::digestOnly();
  S.buildView(ViewS);
  EXPECT_TRUE(ViewS.empty());
  EXPECT_TRUE(S.applyMutator(V.Write, {Value(777), Value(Bytes{1})},
                             Value(true), ViewS));
  EXPECT_TRUE(viewMatches(ViewS, viewOf({{Value(777), Value(Bytes{1})}}), S));
}

TEST(CacheDynamicTest, EmptyContentsAreInvisibleInView) {
  CacheSpec S;
  CacheVocab V = CacheVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.Write, {Value(5), Value(Bytes{9})},
                             Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Write, {Value(5), Value(Bytes{})},
                             Value(true), ViewS));
  EXPECT_TRUE(ViewS.empty()) << "empty block left the view";
}

TEST(CacheDynamicTest, ReadOfUnseenHandleAcceptsNullOrEmpty) {
  CacheSpec S;
  CacheVocab V = CacheVocab::get();
  EXPECT_TRUE(S.returnAllowed(V.Read, {Value(9)}, Value()));
  EXPECT_TRUE(S.returnAllowed(V.Read, {Value(9)}, Value(Bytes{})));
  EXPECT_FALSE(S.returnAllowed(V.Read, {Value(9)}, Value(Bytes{1})));
}

TEST(CacheDynamicTest, ReplayerAutoRegistersAndMatchesRebuild) {
  CacheReplayer R; // dynamic
  CacheVocab V = CacheVocab::get();
  View Inc = View::digestOnly();
  R.buildView(Inc);
  R.applyUpdate(op1(V.OpNewEntry, 42), Inc);
  R.applyUpdate(op2(V.OpCopy, 42, {3, 4}), Inc);
  R.applyUpdate(op1(V.OpAddDirty, 42), Inc);
  EXPECT_TRUE(viewMatches(Inc, viewOf({{Value(42), Value(Bytes{3, 4})}}), R));
}

TEST(CacheDynamicTest, EndToEndCleanRunWithDynamicHandles) {
  // Allocate handles during the run (the layered-stack usage pattern).
  chunk::ChunkManager CM;
  VerifierConfig VC;
  VC.Checker.AuditPeriod = 64;
  Verifier V(std::make_unique<CacheSpec>(),
             std::make_unique<CacheReplayer>(), VC);
  V.start();
  BoxCache C(CM, cacheOpts(), V.hooks());
  harness::Rng R(3);
  std::vector<uint64_t> Live;
  for (int I = 0; I < 400; ++I) {
    if (Live.empty() || R.percent(20))
      Live.push_back(CM.allocate());
    uint64_t Hd = Live[R.range(Live.size())];
    if (R.percent(50)) {
      C.write(Hd, {static_cast<uint8_t>(I), static_cast<uint8_t>(I >> 8)});
    } else if (R.percent(50)) {
      Bytes Out;
      C.read(Hd, Out);
    } else if (R.percent(50)) {
      C.flush();
    } else {
      C.evict();
    }
  }
  VerifierReport Rep = V.finish();
  EXPECT_TRUE(Rep.ok()) << Rep.str();
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runCache(bool Buggy, RunMode Mode, unsigned Threads,
                        unsigned Ops, uint64_t Seed) {
  ScenarioOptions SO;
  SO.Prog = Program::P_Cache;
  SO.Mode = Mode;
  SO.Buggy = Buggy;
  SO.StopAtFirstViolation = Buggy;
  SO.AuditPeriod = Buggy ? 0 : 128;
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

TEST(CacheVerifiedTest, CorrectRunsClean) {
  for (uint64_t Seed : {1, 2, 3}) {
    VerifierReport R =
        runCache(false, RunMode::RM_OnlineView, 8, 200, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(CacheVerifiedTest, CorrectRunsCleanIOMode) {
  VerifierReport R = runCache(false, RunMode::RM_OnlineIO, 8, 200, 5);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(CacheVerifiedTest, BoxwoodBugCaughtByViewRefinement) {
  // Sec. 7.2.2: the unprotected COPY-TO-CACHE lets FLUSH persist a torn
  // buffer; invariant (i) fires at the flush commit.
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R =
        runCache(true, RunMode::RM_OnlineView, 8, 300, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "Boxwood cache bug not detected in 30 seeds";
}

TEST(CacheVerifiedTest, BoxwoodBugCaughtByIORefinementEventually) {
  // The I/O path needs evict-then-read of the corrupted handle: a much
  // longer run (the paper's Table 1 shows the same asymmetry).
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runCache(true, RunMode::RM_OnlineIO, 8, 1200, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}
