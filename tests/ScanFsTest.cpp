//===- ScanFsTest.cpp - Tests for the MiniScan file system -----------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "scanfs/ScanFs.h"
#include "scanfs/ScanFsSpec.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::scanfs;
using namespace vyrd::harness;
using test::viewMatches;
using test::viewOf;

namespace {

struct FsRig {
  chunk::ChunkManager CM;
  cache::BoxCache Cache;
  ScanFs Fs;

  explicit FsRig(bool Buggy = false)
      : Cache(CM, cacheOpts(), Hooks()), Fs(Cache, CM, fsOpts(Buggy),
                                            Hooks()) {}

  static cache::BoxCache::Options cacheOpts() {
    cache::BoxCache::Options O;
    O.ChunkSize = 768;
    return O;
  }
  static ScanFs::Options fsOpts(bool Buggy) {
    ScanFs::Options O;
    O.MaxFiles = 8;
    O.MaxBlocksPerFile = 4;
    O.BlockSize = 16;
    O.BuggyEagerInodePublish = Buggy;
    return O;
  }
};

Bytes bytes(const std::string &S) { return Bytes(S.begin(), S.end()); }

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

TEST(ScanFsImagesTest, InodeRoundTrip) {
  Inode I;
  I.Used = true;
  I.Size = 77;
  I.Blocks = {5, 9, 13};
  Inode Out;
  ASSERT_TRUE(Inode::deserialize(I.serialize(), Out));
  EXPECT_TRUE(Out.Used);
  EXPECT_EQ(Out.Size, 77u);
  EXPECT_EQ(Out.Blocks, (std::vector<uint64_t>{5, 9, 13}));
}

TEST(ScanFsImagesTest, DirectoryRoundTrip) {
  Directory D;
  D.Entries = {{"a", 1}, {"zz", 7}};
  Directory Out;
  ASSERT_TRUE(Directory::deserialize(D.serialize(), Out));
  EXPECT_EQ(Out.Entries, D.Entries);
}

//===----------------------------------------------------------------------===//
// Sequential semantics
//===----------------------------------------------------------------------===//

TEST(ScanFsTest, CreateWriteReadUnlink) {
  FsRig R;
  EXPECT_TRUE(R.Fs.read("a").isNull());
  EXPECT_TRUE(R.Fs.create("a"));
  EXPECT_EQ(R.Fs.read("a"), Value(Bytes()));
  EXPECT_TRUE(R.Fs.write("a", bytes("hello world")));
  EXPECT_EQ(R.Fs.read("a"), Value(bytes("hello world")));
  EXPECT_TRUE(R.Fs.unlink("a"));
  EXPECT_TRUE(R.Fs.read("a").isNull());
}

TEST(ScanFsTest, CreateDuplicateFails) {
  FsRig R;
  EXPECT_TRUE(R.Fs.create("a"));
  EXPECT_FALSE(R.Fs.create("a"));
}

TEST(ScanFsTest, UnlinkAbsentFails) {
  FsRig R;
  EXPECT_FALSE(R.Fs.unlink("nope"));
}

TEST(ScanFsTest, WriteToAbsentFails) {
  FsRig R;
  EXPECT_FALSE(R.Fs.write("nope", bytes("x")));
}

TEST(ScanFsTest, InodeExhaustionFailsCreate) {
  FsRig R; // MaxFiles = 8
  for (int I = 0; I < 8; ++I) {
    std::string Name = "f";
    Name += std::to_string(I);
    EXPECT_TRUE(R.Fs.create(Name));
  }
  EXPECT_FALSE(R.Fs.create("one-too-many"));
  EXPECT_TRUE(R.Fs.unlink("f3"));
  EXPECT_TRUE(R.Fs.create("reuses-inode"));
}

TEST(ScanFsTest, SizeLimitEnforced) {
  FsRig R; // 4 blocks x 16 bytes
  EXPECT_TRUE(R.Fs.create("a"));
  EXPECT_TRUE(R.Fs.write("a", Bytes(64, 0x7)));
  EXPECT_FALSE(R.Fs.write("a", Bytes(65, 0x7)));
  EXPECT_EQ(R.Fs.read("a"), Value(Bytes(64, 0x7)))
      << "failed write leaves contents intact";
}

TEST(ScanFsTest, MultiBlockContents) {
  FsRig R;
  Bytes Big(50);
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = static_cast<uint8_t>(I * 3);
  EXPECT_TRUE(R.Fs.create("big"));
  EXPECT_TRUE(R.Fs.write("big", Big));
  EXPECT_EQ(R.Fs.read("big"), Value(Big));
}

TEST(ScanFsTest, AppendConcatenates) {
  FsRig R;
  EXPECT_TRUE(R.Fs.create("a"));
  EXPECT_TRUE(R.Fs.append("a", bytes("foo")));
  EXPECT_TRUE(R.Fs.append("a", bytes("bar")));
  EXPECT_EQ(R.Fs.read("a"), Value(bytes("foobar")));
  EXPECT_FALSE(R.Fs.append("nope", bytes("x")));
}

TEST(ScanFsTest, ListIsSorted) {
  FsRig R;
  EXPECT_EQ(R.Fs.list(), "");
  R.Fs.create("zeta");
  R.Fs.create("alpha");
  R.Fs.create("mid");
  EXPECT_EQ(R.Fs.list(), "alpha\nmid\nzeta");
}

TEST(ScanFsTest, SyncFlushesCache) {
  FsRig R;
  R.Fs.create("a");
  R.Fs.write("a", bytes("persist-me"));
  EXPECT_GT(R.Fs.sync(), 0);
  EXPECT_EQ(R.Cache.dirtyCount(), 0u);
  EXPECT_EQ(R.Fs.read("a"), Value(bytes("persist-me")));
}

TEST(ScanFsTest, RewriteUsesFreshBlocks) {
  FsRig R;
  R.Fs.create("a");
  size_t Before = R.CM.chunkCount();
  R.Fs.write("a", bytes("v1"));
  R.Fs.write("a", bytes("v2"));
  EXPECT_GT(R.CM.chunkCount(), Before + 1)
      << "write-optimized: rewrites allocate fresh blocks";
  EXPECT_EQ(R.Fs.read("a"), Value(bytes("v2")));
}

//===----------------------------------------------------------------------===//
// Spec
//===----------------------------------------------------------------------===//

TEST(ScanFsSpecTest, CreateUnlinkSemantics) {
  ScanFsSpec S(4);
  FsVocab V = FsVocab::get();
  View ViewS;
  EXPECT_TRUE(S.applyMutator(V.Create, {Value("a")}, Value(true), ViewS));
  EXPECT_FALSE(S.applyMutator(V.Create, {Value("a")}, Value(true), ViewS))
      << "creating an existing name cannot succeed";
  EXPECT_TRUE(S.applyMutator(V.Create, {Value("a")}, Value(false), ViewS));
  EXPECT_FALSE(
      S.applyMutator(V.Unlink, {Value("a")}, Value(false), ViewS))
      << "unlink of an existing file cannot fail";
  EXPECT_TRUE(S.applyMutator(V.Unlink, {Value("a")}, Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Unlink, {Value("a")}, Value(false), ViewS));
}

TEST(ScanFsSpecTest, WriteAppendSemantics) {
  ScanFsSpec S(4);
  FsVocab V = FsVocab::get();
  View ViewS;
  S.applyMutator(V.Create, {Value("a")}, Value(true), ViewS);
  EXPECT_TRUE(S.applyMutator(V.Write, {Value("a"), Value(Bytes{1, 2})},
                             Value(true), ViewS));
  EXPECT_TRUE(S.applyMutator(V.Append, {Value("a"), Value(Bytes{3})},
                             Value(true), ViewS));
  ASSERT_NE(S.contents("a"), nullptr);
  EXPECT_EQ(*S.contents("a"), (Bytes{1, 2, 3}));
  EXPECT_FALSE(S.applyMutator(V.Write, {Value("nope"), Value(Bytes{1})},
                              Value(true), ViewS));
}

TEST(ScanFsSpecTest, Observers) {
  ScanFsSpec S(4);
  FsVocab V = FsVocab::get();
  View ViewS;
  S.applyMutator(V.Create, {Value("b")}, Value(true), ViewS);
  S.applyMutator(V.Create, {Value("a")}, Value(true), ViewS);
  S.applyMutator(V.Write, {Value("a"), Value(Bytes{9})}, Value(true),
                 ViewS);
  EXPECT_TRUE(S.returnAllowed(V.Read, {Value("a")}, Value(Bytes{9})));
  EXPECT_FALSE(S.returnAllowed(V.Read, {Value("a")}, Value(Bytes{8})));
  EXPECT_TRUE(S.returnAllowed(V.Read, {Value("zz")}, Value()));
  EXPECT_TRUE(S.returnAllowed(V.List, {}, Value("a\nb")));
  EXPECT_FALSE(S.returnAllowed(V.List, {}, Value("b\na")));
}

//===----------------------------------------------------------------------===//
// Replayer
//===----------------------------------------------------------------------===//

namespace {

Action dirOp(const Directory &D) {
  return Action::replayOp(0, FsVocab::get().OpDir, {Value(D.serialize())});
}
Action inodeOp(uint32_t Idx, const Inode &I) {
  return Action::replayOp(0, FsVocab::get().OpInode,
                          {Value(Idx), Value(I.serialize())});
}
Action blockOp(uint64_t H, Bytes B) {
  return Action::replayOp(
      0, FsVocab::get().OpBlock,
      {Value(static_cast<int64_t>(H)), Value(std::move(B))});
}

} // namespace

TEST(ScanFsReplayerTest, FileAssemblyFromBlocks) {
  ScanFsReplayer R;
  View ViewI = View::digestOnly();
  R.applyUpdate(blockOp(100, {1, 2}), ViewI);
  R.applyUpdate(blockOp(101, {3}), ViewI);
  Inode I;
  I.Used = true;
  I.Size = 3;
  I.Blocks = {100, 101};
  R.applyUpdate(inodeOp(0, I), ViewI);
  Directory D;
  D.Entries = {{"a", 0}};
  R.applyUpdate(dirOp(D), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value("a"), Value(Bytes{1, 2, 3})}}),
                          R));
}

TEST(ScanFsReplayerTest, EagerInodeShowsTruncatedFile) {
  // The buggy order: inode first, blocks later. The shadow faithfully
  // shows the file with missing data until the blocks arrive.
  ScanFsReplayer R;
  View ViewI = View::digestOnly();
  Directory D;
  D.Entries = {{"a", 0}};
  Inode Empty;
  Empty.Used = true;
  R.applyUpdate(inodeOp(0, Empty), ViewI);
  R.applyUpdate(dirOp(D), ViewI);

  Inode I;
  I.Used = true;
  I.Size = 4;
  I.Blocks = {200};
  R.applyUpdate(inodeOp(0, I), ViewI);
  EXPECT_TRUE(viewMatches(
      ViewI, viewOf({{Value("a"), Value(Bytes{0, 0, 0, 0})}}), R))
      << "missing block data reads as zeros/short";
  R.applyUpdate(blockOp(200, {7, 8, 9, 10}), ViewI);
  EXPECT_TRUE(viewMatches(
      ViewI, viewOf({{Value("a"), Value(Bytes{7, 8, 9, 10})}}), R));
}

TEST(ScanFsReplayerTest, UnlinkRemovesTheEntryItAdded) {
  // Two inodes share block 300, as a buggy interleaving can leave them.
  // A write to the block refreshes only the inode that owns it last, so
  // "a" keeps the entry it was shown with; unlinking "a" must remove that
  // entry, not one built from its current contents.
  ScanFsReplayer R;
  View ViewI = View::digestOnly();
  Inode I;
  I.Used = true;
  I.Size = 2;
  I.Blocks = {300};
  R.applyUpdate(blockOp(300, {1, 1}), ViewI);
  R.applyUpdate(inodeOp(0, I), ViewI);
  R.applyUpdate(inodeOp(1, I), ViewI);
  Directory D;
  D.Entries = {{"a", 0}, {"b", 1}};
  R.applyUpdate(dirOp(D), ViewI);
  R.applyUpdate(blockOp(300, {2, 2}), ViewI);
  D.Entries = {{"b", 1}};
  R.applyUpdate(dirOp(D), ViewI);
  EXPECT_TRUE(viewMatches(ViewI, viewOf({{Value("b"), Value(Bytes{2, 2})}}), R));
}

TEST(ScanFsReplayerTest, IncrementalMatchesRebuild) {
  ScanFsReplayer R;
  View Inc;
  Directory D;
  D.Entries = {{"x", 1}, {"y", 2}};
  Inode I1;
  I1.Used = true;
  I1.Size = 2;
  I1.Blocks = {300};
  Inode I2;
  I2.Used = true;
  R.applyUpdate(blockOp(300, {5, 6}), Inc);
  R.applyUpdate(inodeOp(1, I1), Inc);
  R.applyUpdate(inodeOp(2, I2), Inc);
  R.applyUpdate(dirOp(D), Inc);
  View Fresh;
  R.buildView(Fresh);
  EXPECT_TRUE(Inc.deepEquals(Fresh)) << View::diff(Inc, Fresh);
}

TEST(ScanFsReplayerTest, InvariantCatchesSharedInode) {
  ScanFsReplayer R;
  View ViewI;
  Inode I;
  I.Used = true;
  R.applyUpdate(inodeOp(0, I), ViewI);
  Directory D;
  D.Entries = {{"a", 0}, {"b", 0}};
  R.applyUpdate(dirOp(D), ViewI);
  std::string Msg;
  EXPECT_FALSE(R.checkInvariants(Msg));
  EXPECT_NE(Msg.find("shared"), std::string::npos) << Msg;
}

TEST(ScanFsReplayerTest, InvariantCatchesDanglingEntry) {
  ScanFsReplayer R;
  View ViewI;
  Directory D;
  D.Entries = {{"a", 3}};
  R.applyUpdate(dirOp(D), ViewI);
  std::string Msg;
  EXPECT_FALSE(R.checkInvariants(Msg));
  EXPECT_NE(Msg.find("unused inode"), std::string::npos) << Msg;
}

//===----------------------------------------------------------------------===//
// Verified runs
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runFs(bool Buggy, RunMode Mode, unsigned Threads,
                     unsigned Ops, uint64_t Seed) {
  ScenarioOptions SO;
  SO.Prog = Program::P_ScanFs;
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
  WO.BackgroundOp = S.BackgroundOp;
  if (Buggy)
    WO.StopOnViolation = S.V;
  runWorkload(WO, S.Op);
  Chaos::disable();
  return S.Finish();
}

} // namespace

TEST(ScanFsVerifiedTest, CorrectRunsCleanWithSyncer) {
  for (uint64_t Seed : {1, 2, 3}) {
    VerifierReport R = runFs(false, RunMode::RM_OnlineView, 6, 200, Seed);
    EXPECT_TRUE(R.ok()) << "seed " << Seed << "\n" << R.str();
  }
}

TEST(ScanFsVerifiedTest, CorrectRunsCleanIOMode) {
  VerifierReport R = runFs(false, RunMode::RM_OnlineIO, 6, 200, 9);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(ScanFsVerifiedTest, EagerInodeBugCaughtByViewRefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runFs(true, RunMode::RM_OnlineView, 6, 300, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught) << "eager-inode bug not detected in 30 seeds";
}

TEST(ScanFsVerifiedTest, EagerInodeBugCaughtByIORefinement) {
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 30 && !Caught; ++Seed) {
    VerifierReport R = runFs(true, RunMode::RM_OnlineIO, 6, 1200, Seed);
    Caught = !R.ok();
  }
  EXPECT_TRUE(Caught);
}
