//===- SnapshotTest.cpp - Spec-state snapshots and epoch checking ----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the snapshot subsystem (docs/SNAPSHOTS.md): checker
/// saveState/restoreState round-trip equivalence across the Table 1
/// workloads, snapshot sidecars written at segment cuts (LOGFORMAT v5),
/// cold restart from a reclaimed chain (`vyrd-check --resume`
/// semantics), epoch-parallel checking equivalence with the serial
/// from-zero verdict, and the pessimistic stitching rule (a violation in
/// a later epoch forces the serial re-check).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Checker.h"
#include "vyrd/Epoch.h"
#include "vyrd/Instrument.h"
#include "vyrd/Log.h"
#include "vyrd/Telemetry.h"
#include "vyrd/Serialize.h"
#include "vyrd/Snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

std::string tempBase(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-snaptest-" + Tag + "-" +
         std::to_string(::getpid()) + ".bin";
}

/// Removes a chain's base path and any plausible segments and sidecars.
void removeChainAll(const std::string &Base) {
  std::remove(Base.c_str());
  for (uint64_t I = 1; I <= 128; ++I) {
    std::remove(logSegmentPath(Base, I).c_str());
    std::remove(snapshotSidecarPath(Base, I).c_str());
  }
}

/// Records a single-program workload into \p SO.LogPath per the given
/// options and returns the recording run's report.
VerifierReport recordRun(ScenarioOptions SO, unsigned Threads,
                         unsigned OpsPerThread, uint64_t Seed,
                         bool Chaotic = true) {
  Scenario S = makeScenario(SO);
  if (Chaotic)
    Chaos::enable(4, static_cast<unsigned>(Seed % 13 + 1));
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = OpsPerThread;
  WO.KeyPoolSize = 16;
  WO.Seed = static_cast<unsigned>(Seed);
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  if (Chaotic)
    Chaos::disable();
  return S.Finish();
}

/// Records the composite (four-object) workload as a segmented chain with
/// snapshot sidecars.
VerifierReport recordCompositeChain(const std::string &Base,
                                    uint64_t SegmentBytes, bool Reclaim) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = SegmentBytes;
  SO.Backpressure.ReclaimSegments = Reclaim;
  SO.Snapshots = true;
  Scenario S = makeCompositeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 400;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  return S.Finish();
}

/// The stat fields that must be identical however the checker's work was
/// split across save/restore points (memo hits/misses and timings are
/// legitimately path-dependent, see docs/SNAPSHOTS.md).
void expectDeterministicStatsEq(const CheckerStats &A,
                                const CheckerStats &B) {
  EXPECT_EQ(A.ActionsFed, B.ActionsFed);
  EXPECT_EQ(A.MethodsChecked, B.MethodsChecked);
  EXPECT_EQ(A.CommitsProcessed, B.CommitsProcessed);
  EXPECT_EQ(A.ObserversChecked, B.ObserversChecked);
  EXPECT_EQ(A.ViewComparisons, B.ViewComparisons);
  EXPECT_EQ(A.Audits, B.Audits);
  EXPECT_EQ(A.SpecVersionBumps, B.SpecVersionBumps);
  // The memo table is dropped on restore, so hits turn into misses — but
  // the total number of evaluations the unmemoized checker would have
  // made is an invariant of the log, not of the split.
  EXPECT_EQ(A.ObsMemoHits + A.ObsMemoMisses,
            B.ObsMemoHits + B.ObsMemoMisses);
}

/// Feeds \p Records[From..To) into \p C (single-object logs: everything
/// belongs to object 0).
void feedRange(RefinementChecker &C, const std::vector<Action> &Records,
               size_t From, size_t To) {
  for (size_t I = From; I < To; ++I)
    C.feed(Records[I]);
}

} // namespace

//===----------------------------------------------------------------------===//
// Checker save/restore round-trip
//===----------------------------------------------------------------------===//

// For each of the paper's six workloads: recording a concurrent run,
// checking it in one pass, and checking it with a save/restore cut at
// fuzzed positions must agree on the verdict and on every deterministic
// stat. This is the soundness core of both --resume and --epochs.
TEST(SnapshotTest, SaveRestoreRoundTripMatchesUninterrupted) {
  std::vector<Program> Programs = allPrograms();
  ASSERT_EQ(Programs.size(), 6u);
  for (size_t PI = 0; PI < Programs.size(); ++PI) {
    Program P = Programs[PI];
    SCOPED_TRACE(programName(P));
    std::string Path = tempBase(programName(P));
    std::remove(Path.c_str());
    ScenarioOptions SO;
    SO.Prog = P;
    SO.Mode = RunMode::RM_LogOnlyView;
    SO.LogPath = Path;
    recordRun(SO, 4, 150, 1000 + PI);
    std::vector<Action> Records;
    ASSERT_TRUE(loadLogFile(Path, Records));
    ASSERT_GT(Records.size(), 20u);
    PipelineFactory Factory = makeProgramPipeline(P, /*ViewLevel=*/true);

    auto freshChecker = [&](std::unique_ptr<Spec> &S,
                            std::unique_ptr<Replayer> &R)
        -> std::unique_ptr<RefinementChecker> {
      std::string Name;
      if (!Factory(0, Name, S, R) || !S)
        return nullptr;
      return std::make_unique<RefinementChecker>(*S, R.get(),
                                                 CheckerConfig());
    };

    // Uninterrupted baseline.
    std::unique_ptr<Spec> S0;
    std::unique_ptr<Replayer> R0;
    auto Base = freshChecker(S0, R0);
    ASSERT_NE(Base, nullptr);
    feedRange(*Base, Records, 0, Records.size());
    Base->finish();
    ASSERT_TRUE(Base->violations().empty())
        << Base->violations().front().str();
    CheckerStats Want = Base->stats();

    // Fuzzed cut positions: same verdict, same deterministic stats.
    Rng Fuzz(0xC0FFEE00u + static_cast<uint64_t>(PI));
    for (int Trial = 0; Trial < 3; ++Trial) {
      size_t Cut =
          1 + static_cast<size_t>(Fuzz.range(Records.size() - 1));
      SCOPED_TRACE("cut at " + std::to_string(Cut));
      std::unique_ptr<Spec> S1;
      std::unique_ptr<Replayer> R1;
      auto First = freshChecker(S1, R1);
      feedRange(*First, Records, 0, Cut);
      ByteWriter W;
      ASSERT_TRUE(First->saveState(W));

      std::unique_ptr<Spec> S2;
      std::unique_ptr<Replayer> R2;
      auto Second = freshChecker(S2, R2);
      ByteReader Blob(W.buffer().data(), W.buffer().size());
      ASSERT_TRUE(Second->restoreState(Blob));
      feedRange(*Second, Records, Cut, Records.size());
      Second->finish();
      EXPECT_TRUE(Second->violations().empty())
          << Second->violations().front().str();
      expectDeterministicStatsEq(Want, Second->stats());
    }
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Sidecar writing during an online run
//===----------------------------------------------------------------------===//

// A clean file-backed online run with Snapshots on writes one sidecar per
// rotated-into segment, each carrying every object's blob with the
// segment's first sequence number as the watermark.
TEST(SnapshotTest, OnlineRunWritesSidecarsAtEveryCut) {
  std::string Base = tempBase("sidecars");
  removeChainAll(Base);
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 8 * 1024;
  SO.Backpressure.ReclaimSegments = false;
  SO.Snapshots = true;
  SO.Telemetry.Enabled = true;
  VerifierReport R = recordRun(SO, 4, 300, 42);
  ASSERT_TRUE(R.ok()) << R.str();

  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  ASSERT_GE(Segs.size(), 3u) << "workload too small to rotate";
  size_t Sidecars = 0;
  for (size_t I = 0; I < Segs.size(); ++I) {
    if (I == 0) {
      EXPECT_EQ(Segs[I].Index, 1u);
      EXPECT_FALSE(Segs[I].HasSnapshot)
          << "segment 1 has no predecessor state to snapshot";
      continue;
    }
    ASSERT_TRUE(Segs[I].HasSnapshot)
        << "log cuts are never late; every rotation must produce a "
           "sidecar on a clean run (segment "
        << Segs[I].Index << ")";
    ++Sidecars;
    EXPECT_EQ(Segs[I].Snap.Watermark, Segs[I].FirstSeq)
        << "the sidecar encodes state *before* the segment's first record";
    EXPECT_EQ(Segs[I].Snap.SegmentIndex, Segs[I].Index);
    ASSERT_EQ(Segs[I].Snap.Objects.size(), 1u);
    EXPECT_FALSE(Segs[I].Snap.Objects[0].Blob.empty());
  }
  ASSERT_TRUE(R.TelemetryEnabled);
  EXPECT_EQ(R.Telemetry.counter(Counter::C_SnapshotWrites), Sidecars);
  removeChainAll(Base);
}

//===----------------------------------------------------------------------===//
// Epoch-parallel checking equivalence
//===----------------------------------------------------------------------===//

// On a clean multi-object chain the epoch-parallel verdict, stats and
// bookkeeping must match the serial from-zero check exactly.
TEST(SnapshotTest, EpochCheckMatchesFromZeroOnCleanChain) {
  std::string Base = tempBase("epochs");
  removeChainAll(Base);
  VerifierReport Rec = recordCompositeChain(Base, 24 * 1024,
                                            /*Reclaim=*/false);
  ASSERT_TRUE(Rec.ok()) << Rec.str();

  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  size_t Sidecars = 0;
  for (const ChainSegment &Seg : Segs)
    Sidecars += Seg.HasSnapshot ? 1 : 0;
  ASSERT_GE(Sidecars, 2u) << "need several epochs to make the test count";

  EpochCheckOptions Zero;
  Zero.UseSnapshots = false;
  EpochReport A = epochCheck(Base, 4, makeCompositePipeline(true), Zero);
  ASSERT_TRUE(A.ok()) << A.Error << A.Report.str();
  EXPECT_EQ(A.Epochs, 1u);
  EXPECT_EQ(A.SnapshotLoads, 0u);

  Telemetry Hub;
  EpochCheckOptions Par;
  Par.UseSnapshots = true;
  Par.Threads = 4;
  Par.Telem = &Hub;
  EpochReport B = epochCheck(Base, 4, makeCompositePipeline(true), Par);
  ASSERT_TRUE(B.ok()) << B.Error << B.Report.str();
  EXPECT_EQ(B.Epochs, Sidecars + 1);
  EXPECT_EQ(B.Tasks, 4 * B.Epochs);
  EXPECT_EQ(B.SerialRechecks, 0u);
  EXPECT_EQ(B.SnapshotLoads, 4 * (B.Epochs - 1))
      << "every non-front epoch restores one blob per object";
  EXPECT_EQ(B.Report.LogRecords, A.Report.LogRecords);
  expectDeterministicStatsEq(A.Report.Stats, B.Report.Stats);
  ASSERT_EQ(B.Report.Objects.size(), 4u);
  for (size_t O = 0; O < 4; ++O) {
    EXPECT_EQ(B.Report.Objects[O].Name, A.Report.Objects[O].Name);
    EXPECT_EQ(B.Report.Objects[O].Records, A.Report.Objects[O].Records);
  }

  TelemetrySnapshot TS = Hub.snapshot();
  EXPECT_EQ(TS.counter(Counter::C_EpochsChecked), 4 * B.Epochs);
  EXPECT_EQ(TS.counter(Counter::C_SnapshotLoads), B.SnapshotLoads);
  EXPECT_EQ(TS.gauge(Gauge::G_EpochsInFlight), 0u)
      << "all in-flight epochs must have retired";
  EXPECT_GE(TS.gaugeHwm(Gauge::G_EpochsInFlight), 1u);
  removeChainAll(Base);
}

//===----------------------------------------------------------------------===//
// Cold restart (--resume)
//===----------------------------------------------------------------------===//

// Deleting the checked prefix of a chain (what reclamation does after a
// crash) and resuming from the front sidecar must reproduce the from-zero
// verdict — including the cumulative stats, which the sidecar restores.
TEST(SnapshotTest, ResumeFromTruncatedChainMatchesFromZero) {
  std::string Base = tempBase("resume");
  removeChainAll(Base);
  VerifierReport Rec = recordCompositeChain(Base, 24 * 1024,
                                            /*Reclaim=*/false);
  ASSERT_TRUE(Rec.ok()) << Rec.str();

  EpochCheckOptions Zero;
  Zero.UseSnapshots = false;
  EpochReport A = epochCheck(Base, 4, makeCompositePipeline(true), Zero);
  ASSERT_TRUE(A.ok()) << A.Error;

  // Simulate the crashed verifier's reclaimed prefix: drop everything
  // before the first mid-chain segment that has a usable sidecar.
  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  size_t CutPos = 0;
  for (size_t I = 1; I < Segs.size() && !CutPos; ++I)
    if (Segs[I].HasSnapshot && Segs[I].Snap.Objects.size() == 4)
      CutPos = I;
  ASSERT_GT(CutPos, 0u) << "no usable sidecar in the chain";
  for (size_t I = 0; I < CutPos; ++I) {
    std::remove(Segs[I].Path.c_str());
    if (Segs[I].Index)
      std::remove(snapshotSidecarPath(Base, Segs[I].Index).c_str());
  }

  // Without a snapshot seed the truncated chain is unusable...
  EpochReport NoSeed = epochCheck(Base, 4, makeCompositePipeline(true),
                                  Zero);
  EXPECT_FALSE(NoSeed.Error.empty())
      << "a reclaimed prefix without a sidecar cannot seed a checker";

  // ...and with it, the cold restart reproduces the full-run verdict.
  Telemetry Hub;
  EpochCheckOptions Resume;
  Resume.ResumeOnly = true;
  Resume.Telem = &Hub;
  EpochReport B = epochCheck(Base, 4, makeCompositePipeline(true), Resume);
  ASSERT_TRUE(B.ok()) << B.Error << B.Report.str();
  EXPECT_EQ(B.Epochs, 1u) << "--resume never splits into epochs";
  EXPECT_EQ(B.SnapshotLoads, 4u);
  EXPECT_EQ(B.Report.LogRecords, A.Report.LogRecords)
      << "the resumed walk still reaches the end of the chain";
  // The sidecar restores running stats, so the resumed totals equal the
  // from-zero totals even though fewer records were re-fed.
  expectDeterministicStatsEq(A.Report.Stats, B.Report.Stats);
  TelemetrySnapshot TS = Hub.snapshot();
  EXPECT_GT(TS.gauge(Gauge::G_RestartLag), 0u)
      << "the restart began behind the chain's end";
  removeChainAll(Base);
}

// The integration variant: a run with reclamation enabled leaves a chain
// whose prefix is really gone, and the resume path picks it up.
TEST(SnapshotTest, ResumeAfterRealReclamation) {
  std::string Base = tempBase("reclaimed");
  removeChainAll(Base);
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 8 * 1024;
  SO.Backpressure.ReclaimSegments = true;
  SO.Snapshots = true;
  VerifierReport Rec = recordRun(SO, 4, 400, 77);
  ASSERT_TRUE(Rec.ok()) << Rec.str();

  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  ASSERT_GT(Segs.front().Index, 1u)
      << "reclamation should have deleted the checked prefix";
  ASSERT_TRUE(Segs.front().HasSnapshot)
      << "the oldest live segment must carry its sidecar";

  EpochCheckOptions Resume;
  Resume.ResumeOnly = true;
  EpochReport B = epochCheck(Base, 1,
                             makeProgramPipeline(Program::P_MultisetVector,
                                                 /*ViewLevel=*/true),
                             Resume);
  ASSERT_TRUE(B.ok()) << B.Error << B.Report.str();
  EXPECT_EQ(B.Epochs, 1u);
  EXPECT_EQ(B.SnapshotLoads, 1u);
  removeChainAll(Base);
}

//===----------------------------------------------------------------------===//
// Stitching: violations and corrupt sidecars
//===----------------------------------------------------------------------===//

// A violation in an epoch after the first must trigger exactly one serial
// re-check for the object, and the final verdict must equal the serial
// from-zero check of the same chain.
TEST(SnapshotTest, ViolationInLaterEpochForcesSerialRecheck) {
  std::string Base = tempBase("stitch");
  // The injected multiset bug is probabilistic: retry until a recording
  // has both a violation and at least one sidecar *before* it (so the
  // violating record lands in an epoch that restored from a snapshot).
  // 2 KiB segments rotate within the first few dozen records, so almost
  // any violation lands after the first sidecar.
  bool Got = false;
  std::string Tries;
  for (int Try = 0; Try < 30 && !Got; ++Try) {
    removeChainAll(Base);
    ScenarioOptions SO;
    SO.Prog = Program::P_MultisetVector;
    SO.Mode = RunMode::RM_OnlineView;
    SO.LogPath = Base;
    SO.Buggy = true;
    SO.Backpressure.SegmentBytes = 2 * 1024;
    SO.Backpressure.ReclaimSegments = false;
    SO.Snapshots = true;
    VerifierReport Rec = recordRun(SO, 6, 300, 9000 + Try);
    if (Rec.Violations.empty()) {
      Tries += "try " + std::to_string(Try) + ": clean\n";
      continue;
    }
    std::vector<ChainSegment> Segs;
    if (!enumerateChain(Base, Segs))
      continue;
    uint64_t FirstWatermark = 0;
    for (const ChainSegment &Seg : Segs)
      if (Seg.HasSnapshot && !FirstWatermark)
        FirstWatermark = Seg.Snap.Watermark;
    Tries += "try " + std::to_string(Try) + ": violation at " +
             std::to_string(Rec.Violations.front().Seq) +
             ", first watermark " + std::to_string(FirstWatermark) + "\n";
    if (FirstWatermark && FirstWatermark < Rec.Violations.front().Seq)
      Got = true;
  }
  ASSERT_TRUE(Got) << "could not provoke the multiset bug after a "
                      "rotation; attempts:\n"
                   << Tries;

  EpochCheckOptions Zero;
  Zero.UseSnapshots = false;
  PipelineFactory F =
      makeProgramPipeline(Program::P_MultisetVector, /*ViewLevel=*/true);
  EpochReport A = epochCheck(Base, 1, F, Zero);
  ASSERT_TRUE(A.Error.empty()) << A.Error;
  ASSERT_FALSE(A.Report.Violations.empty())
      << "the recorded violation must reproduce offline";

  EpochCheckOptions Par;
  Par.UseSnapshots = true;
  Par.Threads = 4;
  EpochReport B = epochCheck(Base, 1, F, Par);
  ASSERT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_GE(B.Epochs, 2u);
  EXPECT_EQ(B.SerialRechecks, 1u)
      << "one object, one bad epoch, one serial re-check";
  ASSERT_EQ(B.Report.Violations.size(), A.Report.Violations.size());
  EXPECT_EQ(B.Report.Violations.front().Seq, A.Report.Violations.front().Seq);
  EXPECT_EQ(B.Report.Violations.front().Kind,
            A.Report.Violations.front().Kind);
  removeChainAll(Base);
}

// A corrupted sidecar is not an error: the segment merges into the
// previous epoch and the check proceeds with one epoch fewer.
TEST(SnapshotTest, CorruptSidecarMergesIntoPreviousEpoch) {
  std::string Base = tempBase("corrupt");
  removeChainAll(Base);
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 8 * 1024;
  SO.Backpressure.ReclaimSegments = false;
  SO.Snapshots = true;
  VerifierReport Rec = recordRun(SO, 4, 300, 5);
  ASSERT_TRUE(Rec.ok()) << Rec.str();

  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  std::vector<uint64_t> WithSnap;
  for (const ChainSegment &Seg : Segs)
    if (Seg.HasSnapshot)
      WithSnap.push_back(Seg.Index);
  ASSERT_GE(WithSnap.size(), 2u);

  PipelineFactory F =
      makeProgramPipeline(Program::P_MultisetVector, /*ViewLevel=*/true);
  EpochCheckOptions Par;
  Par.UseSnapshots = true;
  Par.Threads = 2;
  EpochReport Before = epochCheck(Base, 1, F, Par);
  ASSERT_TRUE(Before.ok()) << Before.Error;
  EXPECT_EQ(Before.Epochs, WithSnap.size() + 1);

  // Scribble over a mid-chain sidecar.
  std::string Victim =
      snapshotSidecarPath(Base, WithSnap[WithSnap.size() / 2]);
  FILE *Fp = std::fopen(Victim.c_str(), "wb");
  ASSERT_NE(Fp, nullptr);
  std::fputs("this is not a snapshot", Fp);
  std::fclose(Fp);

  EpochReport After = epochCheck(Base, 1, F, Par);
  ASSERT_TRUE(After.ok()) << After.Error << After.Report.str();
  EXPECT_EQ(After.Epochs, Before.Epochs - 1)
      << "the corrupt sidecar's segment merges into the previous epoch";
  EXPECT_EQ(After.SerialRechecks, 0u);
  expectDeterministicStatsEq(Before.Report.Stats, After.Report.Stats);
  removeChainAll(Base);
}

//===----------------------------------------------------------------------===//
// Graceful degradation and config validation
//===----------------------------------------------------------------------===//

// A spec without snapshot support (ScanFs declines saveState) degrades to
// skipped sidecars — the run itself must stay clean and the chain still
// checks from zero.
TEST(SnapshotTest, UnsupportedSpecSkipsSidecarsGracefully) {
  std::string Base = tempBase("scanfs");
  removeChainAll(Base);
  ScenarioOptions SO;
  SO.Prog = Program::P_ScanFs;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 8 * 1024;
  SO.Backpressure.ReclaimSegments = false;
  SO.Snapshots = true;
  SO.Telemetry.Enabled = true;
  VerifierReport Rec = recordRun(SO, 4, 250, 11, /*Chaotic=*/false);
  ASSERT_TRUE(Rec.ok()) << Rec.str();
  ASSERT_TRUE(Rec.TelemetryEnabled);
  EXPECT_EQ(Rec.Telemetry.counter(Counter::C_SnapshotWrites), 0u);
  EXPECT_GE(Rec.Telemetry.counter(Counter::C_SnapshotSkips), 1u)
      << "every cut must be skipped when the spec cannot serialize";

  std::vector<ChainSegment> Segs;
  ASSERT_TRUE(enumerateChain(Base, Segs));
  for (const ChainSegment &Seg : Segs)
    EXPECT_FALSE(Seg.HasSnapshot);

  // The chain is complete (segment 1 onward), so from-zero still works.
  EpochCheckOptions Par;
  Par.UseSnapshots = true;
  EpochReport ER = epochCheck(Base, 1,
                              makeProgramPipeline(Program::P_ScanFs,
                                                  /*ViewLevel=*/true),
                              Par);
  ASSERT_TRUE(ER.ok()) << ER.Error << ER.Report.str();
  EXPECT_EQ(ER.Epochs, 1u);
  EXPECT_EQ(ER.SnapshotLoads, 0u);
  removeChainAll(Base);
}

TEST(SnapshotTest, ConfigValidationGatesSnapshots) {
  VerifierConfig VC;
  VC.Snapshots = true;
  EXPECT_FALSE(VC.validate().empty())
      << "snapshots without segmentation must be rejected";
  VC.Backpressure.SegmentBytes = 1 << 20;
  EXPECT_FALSE(VC.validate().empty())
      << "snapshots without a file-backed log must be rejected";
  VC.LogFilePath = "/tmp/vyrd-snaptest-validate.bin";
  EXPECT_TRUE(VC.validate().empty()) << VC.validate();
}
