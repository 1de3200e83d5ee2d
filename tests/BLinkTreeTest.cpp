//===- BLinkTreeTest.cpp - Tests for the B-link tree ------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "blinktree/BLinkSpec.h"
#include "blinktree/BLinkTree.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::blinktree;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

namespace {

struct TreeRig {
  chunk::ChunkManager CM;
  cache::BoxCache Cache;
  BLinkTree Tree;

  explicit TreeRig(bool Buggy = false, size_t MaxKeys = 4)
      : Cache(CM, cacheOpts(), Hooks()),
        Tree(Cache, CM, treeOpts(Buggy, MaxKeys), Hooks()) {}

  static cache::BoxCache::Options cacheOpts() {
    cache::BoxCache::Options O;
    O.ChunkSize = 512;
    return O;
  }
  static BLinkTree::Options treeOpts(bool Buggy, size_t MaxKeys) {
    BLinkTree::Options O;
    O.MaxLeafKeys = MaxKeys;
    O.MaxInnerKeys = MaxKeys;
    O.BuggyDuplicates = Buggy;
    return O;
  }
};

chunk::Bytes bytes(std::initializer_list<uint8_t> L) {
  return chunk::Bytes(L);
}

} // namespace

//===----------------------------------------------------------------------===//
// BNode serialization
//===----------------------------------------------------------------------===//

TEST(BNodeTest, SerializationRoundTrip) {
  BNode N;
  N.IsLeaf = false;
  N.Level = 3;
  N.Dead = true;
  N.HighKey = 777;
  N.Right = 42;
  N.Entries = {{-10, 1}, {0, 2}, {99, 3}};
  BNode Out;
  ASSERT_TRUE(BNode::deserialize(N.serialize(), Out));
  EXPECT_EQ(Out.IsLeaf, N.IsLeaf);
  EXPECT_EQ(Out.Level, N.Level);
  EXPECT_EQ(Out.Dead, N.Dead);
  EXPECT_EQ(Out.HighKey, N.HighKey);
  EXPECT_EQ(Out.Right, N.Right);
  ASSERT_EQ(Out.Entries.size(), 3u);
  EXPECT_EQ(Out.Entries[1].Key, 0);
  EXPECT_EQ(Out.Entries[2].Handle, 3u);
}

TEST(BNodeTest, RouteSelectsCoveringChild) {
  BNode N;
  N.IsLeaf = false;
  N.Entries = {{INT64_MIN, 10}, {100, 20}, {200, 30}};
  EXPECT_EQ(N.route(-5), 10u);
  EXPECT_EQ(N.route(99), 10u);
  EXPECT_EQ(N.route(100), 20u);
  EXPECT_EQ(N.route(150), 20u);
  EXPECT_EQ(N.route(200), 30u);
  EXPECT_EQ(N.route(10000), 30u);
}

TEST(BNodeTest, FindKeyAndLowerBound) {
  BNode N;
  N.Entries = {{1, 0}, {3, 0}, {5, 0}};
  EXPECT_EQ(N.findKey(3), 1u);
  EXPECT_EQ(N.findKey(2), BNode::npos);
  EXPECT_EQ(N.lowerBound(0), 0u);
  EXPECT_EQ(N.lowerBound(4), 2u);
  EXPECT_EQ(N.lowerBound(9), 3u);
}

TEST(BNodeTest, VersionedValueEncoding) {
  Value V1 = versionedValue(1, Bytes{9});
  Value V2 = versionedValue(2, Bytes{9});
  EXPECT_NE(V1, V2) << "version participates in the view value";
  ASSERT_TRUE(V1.isBytes());
  EXPECT_EQ(V1.asBytes().size(), 9u);
}

TEST(BDataTest, SerializationRoundTrip) {
  BData D;
  D.Version = 12;
  D.Data = {1, 2, 3};
  BData Out;
  ASSERT_TRUE(BData::deserialize(D.serialize(), Out));
  EXPECT_EQ(Out.Version, 12u);
  EXPECT_EQ(Out.Data, (chunk::Bytes{1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// Tree sequential semantics
//===----------------------------------------------------------------------===//

TEST(BLinkTreeTest, InsertLookupDelete) {
  TreeRig R;
  EXPECT_TRUE(R.Tree.lookup(5).isNull());
  EXPECT_TRUE(R.Tree.insert(5, bytes({0xAA})));
  Value V = R.Tree.lookup(5);
  EXPECT_EQ(V, versionedValue(1, Bytes{0xAA}));
  EXPECT_TRUE(R.Tree.remove(5));
  EXPECT_TRUE(R.Tree.lookup(5).isNull());
  EXPECT_FALSE(R.Tree.remove(5));
}

TEST(BLinkTreeTest, OverwriteBumpsVersion) {
  TreeRig R;
  R.Tree.insert(5, bytes({1}));
  R.Tree.insert(5, bytes({2}));
  EXPECT_EQ(R.Tree.lookup(5), versionedValue(2, Bytes{2}));
}

TEST(BLinkTreeTest, SplitsGrowTheTree) {
  TreeRig R(/*Buggy=*/false, /*MaxKeys=*/4);
  EXPECT_EQ(R.Tree.height(), 1u);
  for (int64_t K = 0; K < 40; ++K)
    R.Tree.insert(K, bytes({static_cast<uint8_t>(K)}));
  EXPECT_GT(R.Tree.height(), 1u);
  for (int64_t K = 0; K < 40; ++K)
    EXPECT_EQ(R.Tree.lookup(K),
              versionedValue(1, Bytes{static_cast<uint8_t>(K)}))
        << "key " << K;
}

TEST(BLinkTreeTest, DescendingInsertOrder) {
  TreeRig R(false, 4);
  for (int64_t K = 50; K > 0; --K)
    R.Tree.insert(K, bytes({static_cast<uint8_t>(K)}));
  for (int64_t K = 1; K <= 50; ++K)
    EXPECT_FALSE(R.Tree.lookup(K).isNull()) << "key " << K;
}

TEST(BLinkTreeTest, NegativeAndSparseKeys) {
  TreeRig R(false, 4);
  const int64_t Keys[] = {-1000000, -7, 0, 3, 888888, INT64_MAX / 2};
  for (int64_t K : Keys)
    R.Tree.insert(K, bytes({7}));
  for (int64_t K : Keys)
    EXPECT_FALSE(R.Tree.lookup(K).isNull()) << "key " << K;
  EXPECT_TRUE(R.Tree.lookup(1).isNull());
}

TEST(BLinkTreeTest, DeleteAcrossSplitLeaves) {
  TreeRig R(false, 4);
  for (int64_t K = 0; K < 30; ++K)
    R.Tree.insert(K, bytes({1}));
  for (int64_t K = 0; K < 30; K += 2)
    EXPECT_TRUE(R.Tree.remove(K));
  for (int64_t K = 0; K < 30; ++K)
    EXPECT_EQ(R.Tree.lookup(K).isNull(), K % 2 == 0) << "key " << K;
}

TEST(BLinkTreeTest, CompressMergesUnderfullLeavesPreservingContents) {
  TreeRig R(false, 4);
  for (int64_t K = 0; K < 24; ++K)
    R.Tree.insert(K, bytes({static_cast<uint8_t>(K)}));
  // Delete most keys, leaving sparse survivors across many leaves.
  for (int64_t K = 0; K < 24; ++K)
    if (K % 5 != 0)
      R.Tree.remove(K);
  size_t Merges = 0;
  while (R.Tree.compress())
    ++Merges;
  EXPECT_GT(Merges, 0u) << "underfull neighbors should merge";
  for (int64_t K = 0; K < 24; ++K) {
    if (K % 5 == 0)
      EXPECT_EQ(R.Tree.lookup(K),
                versionedValue(1, Bytes{static_cast<uint8_t>(K)}))
          << "key " << K;
    else
      EXPECT_TRUE(R.Tree.lookup(K).isNull()) << "key " << K;
  }
  // The structure still accepts new work after heavy merging.
  R.Tree.insert(1000, bytes({9}));
  EXPECT_EQ(R.Tree.lookup(1000), versionedValue(1, Bytes{9}));
}

TEST(BLinkTreeTest, CompressMergesEmptyLeaves) {
  TreeRig R(false, 4);
  for (int64_t K = 0; K < 30; ++K)
    R.Tree.insert(K, bytes({1}));
  for (int64_t K = 0; K < 30; ++K)
    R.Tree.remove(K);
  // Drain all merge opportunities.
  size_t Merges = 0;
  while (R.Tree.compress())
    ++Merges;
  EXPECT_GT(Merges, 0u);
  // Contents unchanged (empty), tree still works.
  for (int64_t K = 0; K < 30; ++K)
    EXPECT_TRUE(R.Tree.lookup(K).isNull());
  R.Tree.insert(17, bytes({9}));
  EXPECT_EQ(R.Tree.lookup(17), versionedValue(1, Bytes{9}));
}

//===----------------------------------------------------------------------===//
// Spec
//===----------------------------------------------------------------------===//

TEST(BLinkSpecTest, InsertOverwriteDeleteSemantics) {
  BLinkSpec S;
  BltVocab V = BltVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(
      V.Insert, {Value(1), Value(chunk::Bytes{5})}, Value(true), ViewS));
  EXPECT_TRUE(S.returnAllowed(V.Lookup, {Value(1)},
                              versionedValue(1, Bytes{5})));
  EXPECT_TRUE(S.applyMutator(
      V.Insert, {Value(1), Value(chunk::Bytes{6})}, Value(true), ViewS));
  EXPECT_TRUE(S.returnAllowed(V.Lookup, {Value(1)},
                              versionedValue(2, Bytes{6})));
  EXPECT_FALSE(S.returnAllowed(V.Lookup, {Value(1)},
                               versionedValue(1, Bytes{6})))
      << "stale version rejected";
  EXPECT_TRUE(S.applyMutator(V.Delete, {Value(1)}, Value(true), ViewS));
  EXPECT_TRUE(S.returnAllowed(V.Lookup, {Value(1)}, Value()));
  EXPECT_FALSE(S.applyMutator(V.Delete, {Value(1)}, Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Delete, {Value(1)}, Value(false), ViewS));
}

TEST(BLinkSpecTest, CompressIsIdentity) {
  BLinkSpec S;
  BltVocab V = BltVocab::get();
  View ViewS;
  S.applyMutator(V.Insert, {Value(1), Value(chunk::Bytes{5})},
                 Value(true), ViewS);
  auto D = ViewS.digest();
  EXPECT_TRUE(S.applyMutator(V.Compress, {}, Value(true), ViewS));
  EXPECT_EQ(ViewS.digest(), D);
}

//===----------------------------------------------------------------------===//
// Replayer
//===----------------------------------------------------------------------===//

namespace {

Action nodeOp(uint64_t H, const BNode &N) {
  return Action::replayOp(0, BltVocab::get().OpNode,
                          {Value(static_cast<int64_t>(H)),
                           Value(N.serialize())});
}
Action dataOp(uint64_t H, uint64_t Ver, chunk::Bytes B) {
  return Action::replayOp(0, BltVocab::get().OpData,
                          {Value(static_cast<int64_t>(H)),
                           Value(static_cast<int64_t>(Ver)),
                           Value(std::move(B))});
}

} // namespace

TEST(BLinkReplayerTest, LeafEntriesEnterView) {
  BLinkReplayer R(1);
  View ViewI = View::digestOnly();
  R.applyUpdate(dataOp(5, 1, {0xAB}), ViewI);
  BNode Leaf;
  Leaf.Entries = {{10, 5}};
  R.applyUpdate(nodeOp(1, Leaf), ViewI);
  EXPECT_TRUE(viewMatches(
      ViewI, viewOf({{Value(10), versionedValue(1, Bytes{0xAB})}}), R));
}

TEST(BLinkReplayerTest, DataOverwriteUpdatesReferencingKeys) {
  BLinkReplayer R(1);
  View ViewI = View::digestOnly();
  R.applyUpdate(dataOp(5, 1, {1}), ViewI);
  BNode Leaf;
  Leaf.Entries = {{10, 5}};
  R.applyUpdate(nodeOp(1, Leaf), ViewI);
  R.applyUpdate(dataOp(5, 2, {2}), ViewI);
  EXPECT_TRUE(viewMatches(
      ViewI, viewOf({{Value(10), versionedValue(2, Bytes{2})}}), R));
}

TEST(BLinkReplayerTest, SplitIsViewNeutral) {
  BLinkReplayer R(1);
  View ViewI = View::digestOnly();
  R.applyUpdate(dataOp(5, 1, {1}), ViewI);
  R.applyUpdate(dataOp(6, 1, {2}), ViewI);
  BNode Leaf;
  Leaf.Entries = {{10, 5}, {20, 6}};
  R.applyUpdate(nodeOp(1, Leaf), ViewI);
  auto D = ViewI.digest();

  // Split: new right leaf 2 takes key 20; leaf 1 keeps 10.
  BNode RightN;
  RightN.Entries = {{20, 6}};
  RightN.HighKey = Leaf.HighKey;
  BNode LeftN;
  LeftN.Entries = {{10, 5}};
  LeftN.HighKey = 20;
  LeftN.Right = 2;
  R.applyUpdate(nodeOp(2, RightN), ViewI);
  R.applyUpdate(nodeOp(1, LeftN), ViewI);
  EXPECT_EQ(ViewI.digest(), D) << "split must not change the view";
  EXPECT_TRUE(viewMatches(ViewI,
                          viewOf({{Value(10), versionedValue(1, Bytes{1})},
                                  {Value(20), versionedValue(1, Bytes{2})}}),
                          R));
}

TEST(BLinkReplayerTest, DuplicateKeysAcrossLeavesVisible) {
  BLinkReplayer R(1);
  View ViewI = View::digestOnly();
  R.applyUpdate(dataOp(5, 1, {1}), ViewI);
  R.applyUpdate(dataOp(6, 1, {1}), ViewI);
  BNode Leaf;
  Leaf.Entries = {{10, 5}, {10, 6}}; // the duplicated-data-node shape
  R.applyUpdate(nodeOp(1, Leaf), ViewI);
  EXPECT_TRUE(viewMatches(ViewI,
                          viewOf({{Value(10), versionedValue(1, Bytes{1})},
                                  {Value(10), versionedValue(1, Bytes{1})}}),
                          R));
}

TEST(BLinkReplayerTest, DeadLeafLeavesView) {
  BLinkReplayer R(1);
  View ViewI = View::digestOnly();
  R.applyUpdate(dataOp(5, 1, {1}), ViewI);
  BNode Leaf;
  Leaf.Entries = {{10, 5}};
  R.applyUpdate(nodeOp(2, Leaf), ViewI);
  // Leaf 2 is not on the chain from leaf 1 in this synthetic setup, but
  // incremental accounting tracks it; kill it and the entry must go.
  BNode DeadLeaf = Leaf;
  DeadLeaf.Dead = true;
  R.applyUpdate(nodeOp(2, DeadLeaf), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, View(), R));
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runBlt(bool Buggy, RunMode Mode, unsigned Threads,
                      unsigned Ops, uint64_t Seed, bool Compress = true) {
  ScenarioOptions SO;
  SO.Prog = Program::P_BLinkTree;
  SO.Mode = Mode;
  SO.Buggy = Buggy;
  SO.StopAtFirstViolation = Buggy;
  SO.AuditPeriod = Buggy ? 0 : 128;
  Scenario S = makeScenario(SO);
  Chaos::enable(4, Seed);
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = Ops;
  WO.KeyPoolSize = 24;
  WO.KeyRange = 4096;
  WO.Seed = Seed;
  if (Compress)
    WO.BackgroundOp = S.BackgroundOp;
  if (Buggy)
    WO.StopOnViolation = S.V;
  runWorkload(WO, S.Op);
  Chaos::disable();
  return S.Finish();
}

} // namespace

TEST(BLinkVerifiedTest, DeepTreeConcurrentRunClean) {
  // Force a tall tree (small fanout, many distinct keys) so multi-level
  // splits, root growth and merges all happen under load, verified.
  VerifierConfig VC;
  VC.Checker.Mode = CheckMode::CM_ViewRefinement;
  VC.Checker.AuditPeriod = 512;
  Verifier V(std::make_unique<BLinkSpec>(),
             std::make_unique<BLinkReplayer>(1), VC);
  V.start();

  chunk::ChunkManager CM;
  cache::BoxCache::Options CO;
  CO.ChunkSize = 512;
  cache::BoxCache Cache(CM, CO, Hooks());
  BLinkTree::Options TO;
  TO.MaxLeafKeys = 4;
  TO.MaxInnerKeys = 4;
  BLinkTree Tree(Cache, CM, TO, V.hooks());

  Chaos::enable(4, 5);
  harness::WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 400;
  WO.KeyPoolSize = 200;
  WO.KeyRange = 100000;
  WO.Seed = 5;
  WO.BackgroundOp = [&Tree] { Tree.compress(); };
  harness::runWorkload(
      WO, [&](harness::Rng &R, int64_t K1, int64_t, double) {
        unsigned Dice = static_cast<unsigned>(R.range(100));
        if (Dice < 55)
          Tree.insert(K1, bytes({static_cast<uint8_t>(K1)}));
        else if (Dice < 75)
          Tree.remove(K1);
        else
          Tree.lookup(K1);
      });
  Chaos::disable();
  EXPECT_GE(Tree.height(), 3u) << "tree should have grown tall";
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_GT(R.Stats.MethodsChecked, 1000u);
}

TEST(BLinkVerifiedTest, CorrectRunsCleanWithCompression) {
  for (uint64_t Seed : {1, 2, 3}) {
    VerifierReport R = runBlt(false, RunMode::RM_OnlineView, 6, 200, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(BLinkVerifiedTest, CorrectRunsCleanIOMode) {
  VerifierReport R = runBlt(false, RunMode::RM_OnlineIO, 6, 200, 7);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(BLinkVerifiedTest, BuggyDuplicatesCaughtByViewRefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runBlt(true, RunMode::RM_OnlineView, 6, 300, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "duplicated-data-nodes bug not caught in 30 seeds";
}

TEST(BLinkVerifiedTest, BuggyDuplicatesCaughtByIORefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 40 && !Caught; ++Seed) {
    VerifierReport R = runBlt(true, RunMode::RM_OnlineIO, 6, 1200, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}
