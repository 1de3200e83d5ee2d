//===- bench_multiobject.cpp - Checker-pool throughput vs pool size --------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the multi-object verification engine: one shared log carrying
// four interleaved objects (array multiset, Boxwood cache, B-link tree,
// bounded queue — the composite scenario), demultiplexed and checked by a
// pool of CheckerThreads workers with per-object affinity.
//
// Methodology: a composite log-only run records a fixed workload to a
// temporary file once. The bench then replays those exact records into a
// fresh online composite Verifier per configuration, so every pool size
// checks the same interleaving and the replay thread plays the role of
// the instrumented program. Reported throughput is log records fully
// checked per wall second (append of the first record to finish() of the
// last object), best of Reps.
//
// CheckerThreads = 1 feeds checkers inline on the consumption thread —
// the engine's historical single-threaded behavior and the scaling
// baseline. Results are recorded in EXPERIMENTS.md.
//
// --epochs switches to the epoch-parallel mode: the composite workload is
// recorded once as a segmented chain with snapshot sidecars
// (VerifierConfig::Snapshots, reclamation off), then epochCheck() replays
// it with one task per epoch on 1/2/4 threads against the serial
// from-zero baseline. This measures the within-object speedup the
// object-affine pool cannot provide (docs/SNAPSHOTS.md).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "vyrd/Epoch.h"
#include "vyrd/Snapshot.h"

#include <cstdio>
#include <unistd.h>

using namespace vyrd;
using namespace vyrd::bench;
using namespace vyrd::harness;

namespace {

unsigned OpsPerThread = 4000;
unsigned RecordThreads = 4;
unsigned Reps = 3;

/// Records the composite workload once and loads the resulting records.
std::vector<Action> recordCompositeLog(const std::string &Path) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_LogOnlyView;
  SO.LogPath = Path;
  Scenario S = makeCompositeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = RecordThreads;
  WO.OpsPerThread = OpsPerThread;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  S.Finish();
  std::vector<Action> Records;
  if (!loadLogFile(Path, Records)) {
    std::fprintf(stderr, "error: cannot reload recorded log %s\n",
                 Path.c_str());
    std::exit(1);
  }
  return Records;
}

struct RunResult {
  double Wall = 0;             // replay start -> report, best rep
  VerifierReport Report;       // of the best rep
};

/// Replays \p Records into a fresh online composite verifier with
/// \p CheckerThreads pool workers and waits for checking to complete.
RunResult runOnce(const std::vector<Action> &Records,
                  unsigned CheckerThreads) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  SO.CheckerThreads = CheckerThreads;
  Scenario S = makeCompositeScenario(SO);
  RunResult R;
  double T0 = wallSeconds();
  // The log reassigns Seq in append order, so the replayed stream is
  // exactly as well-formed as the recorded one.
  for (const Action &A : Records)
    S.L->append(A);
  R.Report = S.Finish();
  R.Wall = wallSeconds() - T0;
  if (!R.Report.ok()) {
    std::fprintf(stderr, "error: clean composite replay found %zu "
                         "violations\n",
                 R.Report.Violations.size());
    std::fprintf(stderr, "%s\n", R.Report.str().c_str());
    std::exit(1);
  }
  return R;
}

RunResult best(const std::vector<Action> &Records, unsigned CheckerThreads) {
  RunResult Best;
  for (unsigned I = 0; I < Reps; ++I) {
    RunResult R = runOnce(Records, CheckerThreads);
    if (Best.Wall == 0 || R.Wall < Best.Wall)
      Best = std::move(R);
  }
  return Best;
}

/// Per-object record counts as a JSON object for the row's "extra".
std::string objectsExtra(const VerifierReport &Rep, double Speedup) {
  std::string Out = "{\"speedup\":" + std::to_string(Speedup) +
                    ",\"objects\":{";
  for (size_t I = 0; I < Rep.Objects.size(); ++I) {
    if (I)
      Out += ",";
    Out += "\"" + Rep.Objects[I].Name +
           "\":" + std::to_string(Rep.Objects[I].Records);
  }
  return Out + "}}";
}

//===----------------------------------------------------------------------===//
// --epochs mode
//===----------------------------------------------------------------------===//

/// Records the composite workload as a segmented chain with snapshot
/// sidecars and reclamation off, so the whole chain stays on disk as the
/// epoch bench's input. \returns the recording run's report.
VerifierReport recordSnapshotChain(const std::string &Base, bool Quick) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  // Small segments give the quick run several epochs; the full run uses
  // larger ones so the sidecar overhead stays realistic.
  SO.Backpressure.SegmentBytes = Quick ? 48 * 1024 : 192 * 1024;
  SO.Backpressure.ReclaimSegments = false;
  SO.Snapshots = true;
  Scenario S = makeCompositeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = RecordThreads;
  WO.OpsPerThread = OpsPerThread;
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  VerifierReport R = S.Finish();
  if (!R.ok()) {
    std::fprintf(stderr, "error: clean composite recording found %zu "
                         "violations\n",
                 R.Violations.size());
    std::exit(1);
  }
  return R;
}

/// Deletes every segment and sidecar of the chain at \p Base.
void removeChain(const std::string &Base) {
  std::vector<ChainSegment> Segs;
  if (!enumerateChain(Base, Segs))
    return;
  for (const ChainSegment &Seg : Segs) {
    std::remove(Seg.Path.c_str());
    if (Seg.Index)
      std::remove(snapshotSidecarPath(Base, Seg.Index).c_str());
  }
}

int runEpochBench(const BenchArgs &Args) {
  BenchJson BJ("multiobject-epochs", Args.JsonPath);
  std::string Base = "/tmp/vyrd-benchepoch-" + std::to_string(getpid()) +
                     ".bin";
  recordSnapshotChain(Base, Args.Quick);

  std::vector<ChainSegment> Segs;
  enumerateChain(Base, Segs);
  size_t Sidecars = 0;
  for (const ChainSegment &Seg : Segs)
    Sidecars += Seg.HasSnapshot ? 1 : 0;
  std::printf("Epoch-parallel checking (composite chain: %zu segment(s), "
              "%zu sidecar(s))\n\n",
              Segs.size(), Sidecars);
  std::printf("%-20s %12s %14s %9s %8s\n", "config", "wall s", "records/s",
              "speedup", "epochs");
  hr();

  struct Cfg {
    const char *Name;
    bool UseSnapshots;
    unsigned Threads;
  };
  const Cfg Cfgs[] = {{"from-zero x1", false, 1},
                      {"epochs x1", true, 1},
                      {"epochs x2", true, 2},
                      {"epochs x4", true, 4}};
  double Baseline = 0;
  for (const Cfg &C : Cfgs) {
    EpochCheckOptions EO;
    EO.UseSnapshots = C.UseSnapshots;
    EO.Threads = C.Threads;
    double BestWall = 0;
    EpochReport Best;
    for (unsigned I = 0; I < Reps; ++I) {
      double T0 = wallSeconds();
      EpochReport ER = epochCheck(Base, 4, makeCompositePipeline(true), EO);
      double Wall = wallSeconds() - T0;
      if (!ER.ok()) {
        std::fprintf(stderr, "error: epoch check (%s) failed: %s\n", C.Name,
                     ER.Error.empty() ? "violations on a clean chain"
                                      : ER.Error.c_str());
        std::fprintf(stderr, "%s\n", ER.Report.str().c_str());
        std::exit(1);
      }
      if (BestWall == 0 || Wall < BestWall) {
        BestWall = Wall;
        Best = std::move(ER);
      }
    }
    uint64_t Recs = Best.Report.LogRecords;
    double PerS = static_cast<double>(Recs) / BestWall;
    if (Baseline == 0)
      Baseline = BestWall;
    double Speedup = Baseline / BestWall;
    std::printf("%-20s %12.3f %14.0f %8.2fx %8llu\n", C.Name, BestWall,
                PerS, Speedup, static_cast<unsigned long long>(Best.Epochs));
    double NsPerRecord = BestWall * 1e9 / static_cast<double>(Recs);
    BJ.row(C.Name, C.Threads, NsPerRecord, PerS,
           "{\"speedup\":" + std::to_string(Speedup) +
               ",\"epochs\":" + std::to_string(Best.Epochs) +
               ",\"serial_rechecks\":" +
               std::to_string(Best.SerialRechecks) + "}");
  }
  hr();
  removeChain(Base);
  return BJ.write() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  bool EpochMode = false;
  std::vector<char *> Filtered{Argv[0]};
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--epochs") {
      EpochMode = true;
      continue;
    }
    Filtered.push_back(Argv[I]);
  }
  BenchArgs Args =
      parseBenchArgs(static_cast<int>(Filtered.size()), Filtered.data());
  if (Args.Quick) {
    OpsPerThread = 600;
    Reps = 1;
  }
  if (EpochMode)
    return runEpochBench(Args);
  BenchJson BJ("multiobject", Args.JsonPath);

  std::string Path = "/tmp/vyrd-benchmulti-" + std::to_string(getpid()) +
                     ".bin";
  std::vector<Action> Records = recordCompositeLog(Path);
  std::remove(Path.c_str());

  std::printf("Multi-object checking throughput (composite scenario: "
              "multiset + cache +\nblinktree + queue on one log; %zu "
              "records, best of %u)\n\n",
              Records.size(), Reps);
  std::printf("%-16s %12s %14s %9s\n", "checker pool", "wall s",
              "records/s", "speedup");
  hr();

  double Baseline = 0;
  for (unsigned Threads : {1u, 2u, 4u}) {
    RunResult R = best(Records, Threads);
    double PerS = static_cast<double>(Records.size()) / R.Wall;
    if (Threads == 1)
      Baseline = R.Wall;
    double Speedup = Baseline / R.Wall;
    std::printf("%-16u %12.3f %14.0f %8.2fx\n", Threads, R.Wall, PerS,
                Speedup);
    double NsPerRecord = R.Wall * 1e9 / static_cast<double>(Records.size());
    BJ.row("composite-online-view", Threads, NsPerRecord, PerS,
           objectsExtra(R.Report, Speedup));
  }
  hr();
  return BJ.write() ? 0 : 1;
}
