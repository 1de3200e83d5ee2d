//===- quickstart.cpp - VYRD in 80 lines -----------------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Quickstart: verify the paper's running example — the concurrent array
// multiset — at runtime. We run the buggy FindSlot variant (Fig. 5) under a
// random workload with view refinement checking and watch VYRD catch the
// lost-update race; then we run the corrected code and see a clean report.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [log-file]
//
// With a log-file argument, the final (clean) run records its log there
// and enables pipeline telemetry, so the report below the verdict shows
// the metric snapshot and the file can be fed to vyrd-trace / vyrd-check.
// --segment-bytes N additionally rotates that log into numbered segment
// files every N bytes (docs/LOGFORMAT.md); the tools walk the chain.
// --adaptive turns on the self-tuning pipeline for the final run: the
// pump's batch target follows the live checker lag and the admission
// policy escalates under sustained backlog (the report then carries an
// "adaptive:" section with the batch-target high-water mark and any
// policy transitions).
// --monitor-socket PATH serves the live monitor endpoint during the
// final run (attach with `vyrd-mon --socket PATH top`), holding it open
// for --monitor-hold-ms before finishing. --forensics PREFIX makes the
// buggy run flush a `PREFIX.<object>.forensic.json` bundle when the
// violation fires (docs/OBSERVABILITY.md, "Violation forensics").
// --ship ENDPOINT (with a log-file and --segment-bytes) streams the
// final run's closed segments to a running vyrd-checkd at unix:<path> /
// tcp:<host>:<port> instead of checking locally; the verdict then lives
// in the daemon's `<name>.report.json` (--ship-name NAME, default
// "stream"; docs/SHIPPING.md).
//
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "multiset/ArrayMultiset.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "queue/BoundedQueue.h"
#include "queue/QueueSpec.h"
#include "vyrd/Vyrd.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace vyrd;
using namespace vyrd::harness;

// The README's "Quickstart in code" section quotes the body of this
// function verbatim; it is compiled here so the documentation cannot rot.
static void readmeQuickstart() {
  // 1. One verifier, one log, any number of verified objects: register
  //    each structure (spec + replayer) and get hooks bound to its id.
  VerifierConfig VC;     // view refinement by default
  VC.CheckerThreads = 2; // check the objects in parallel
  Verifier V(VC);
  Hooks HM = V.registerObject(
      "multiset", std::make_unique<multiset::MultisetSpec>(),
      KeyValueReplayer::guardedBag("A"));
  Hooks HQ = V.registerObject("queue",
                              std::make_unique<queue::QueueSpec>(16),
                              KeyValueReplayer::map("q"));
  V.start();

  // 2. The instrumented implementations log through their object's hooks.
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 48; // the generic replayer sizes its shadow on demand
  multiset::ArrayMultiset M(MO, HM);
  queue::BoundedQueue::Options QO;
  QO.Capacity = 16; // must match the spec's capacity
  queue::BoundedQueue Q(QO, HQ);

  // 3. Hammer them from as many threads as you like ...
  M.insert(7);
  Q.offer(42);
  M.lookUp(7);
  Q.poll();

  // 4. ... and collect the verdict, attributed per object.
  VerifierReport R = V.finish();
  if (!R.ok())
    std::puts(R.Violations.front().str().c_str());
}

struct RunExtras {
  std::string LogPath;
  uint64_t SegmentBytes = 0;
  bool Snapshots = false;
  bool Adaptive = false; // self-tuning pump batches + policy escalation
  std::string MonitorSocket; // live vyrd-mon endpoint (implies telemetry)
  uint64_t MonitorHoldMs = 0; // keep the monitor up this long pre-finish
  std::string ForensicPrefix; // flush *.forensic.json on violation
  std::string ShipEndpoint;  // stream segments to a vyrd-checkd service
  std::string ShipName;      // session name at the service
};

static VerifierReport runOnce(bool Buggy, uint64_t Seed,
                              const RunExtras &X = {}) {
  const std::string &LogPath = X.LogPath;
  // 1. Build the scenario: instrumented multiset + atomic specification +
  //    replayer + online verification thread, all wired to one log.
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView; // I/O + view refinement
  SO.Buggy = Buggy;
  SO.LogPath = LogPath; // durable log (when set), reusable by the tools
  SO.Telemetry.Enabled = !LogPath.empty(); // docs/OBSERVABILITY.md
  // A live monitor endpoint reads telemetry, so attaching one implies it.
  SO.Monitor.SocketPath = X.MonitorSocket;
  if (!X.MonitorSocket.empty())
    SO.Telemetry.Enabled = true;
  SO.ForensicPrefix = X.ForensicPrefix;
  // Rotate the durable log into numbered segments (docs/LOGFORMAT.md,
  // "Segmented chains"); the tools walk the chain transparently. Keep
  // the whole chain: this log exists to be re-read, so checked-prefix
  // reclamation would defeat the point.
  SO.Backpressure.SegmentBytes = X.SegmentBytes;
  SO.Backpressure.ReclaimSegments = false;
  // Snapshot sidecars at every rotation make the recorded chain
  // restartable and epoch-checkable (docs/SNAPSHOTS.md).
  SO.Snapshots = X.Snapshots;
  // Self-tuning pipeline (docs/ARCHITECTURE.md, "The self-tuning
  // pipeline"): the pump's batch target follows the live checker lag,
  // and with a bounded queue the admission policy escalates
  // block -> spill -> shed under sustained backlog and walks back down
  // once the checker catches up. Every transition lands in the report.
  if (X.Adaptive) {
    SO.Adaptive.Enabled = true;
    SO.Adaptive.EscalatePolicy = true;
    SO.Backpressure.Enabled = true;
  }
  // Remote checking (docs/SHIPPING.md): closed segments stream to the
  // vyrd-checkd at this endpoint, which acks per-segment watermarks; the
  // verdict lives in its session report. The chain stays on disk
  // (ReclaimSegments is off above) so a from-zero `vyrd-check` can
  // cross-check the remote verdict afterwards.
  SO.Shipping.Endpoint = X.ShipEndpoint;
  SO.Shipping.StreamName = X.ShipName;
  Scenario S = makeScenario(SO);

  // 2. Drive it with the paper's random test harness (Sec. 7.1): several
  //    threads hammer the same instance with a shrinking key pool. The
  //    chaos scheduler injects yields so races fire even on one core.
  Chaos::enable(/*Inverse=*/4, /*Seed=*/Seed);
  WorkloadOptions WO;
  WO.Threads = 8;
  WO.OpsPerThread = 400;
  WO.KeyPoolSize = 24;
  WO.Seed = Seed;
  WO.StopOnViolation = S.V; // stop as soon as an error is caught
  WorkloadResult R = runWorkload(WO, S.Op);
  Chaos::disable();

  // Hold the monitor endpoint open so an external vyrd-mon can attach
  // deterministically before finish() tears the verifier down (CI does
  // exactly this: quickstart in the background, vyrd-mon --wait).
  if (!X.MonitorSocket.empty() && X.MonitorHoldMs)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(X.MonitorHoldMs));

  // 3. Collect the verdict.
  VerifierReport Rep = S.Finish();
  std::printf("  issued %llu method calls in %.3fs\n",
              static_cast<unsigned long long>(R.OpsIssued), R.Seconds);
  return Rep;
}

int main(int Argc, char **Argv) {
  RunExtras X;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--segment-bytes" && I + 1 < Argc) {
      X.SegmentBytes = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--snapshots") {
      X.Snapshots = true;
    } else if (Arg == "--adaptive") {
      X.Adaptive = true;
    } else if (Arg == "--monitor-socket" && I + 1 < Argc) {
      X.MonitorSocket = Argv[++I];
    } else if (Arg == "--monitor-hold-ms" && I + 1 < Argc) {
      X.MonitorHoldMs = std::strtoull(Argv[++I], nullptr, 10);
    } else if (Arg == "--forensics" && I + 1 < Argc) {
      X.ForensicPrefix = Argv[++I];
    } else if (Arg == "--ship" && I + 1 < Argc) {
      X.ShipEndpoint = Argv[++I];
    } else if (Arg == "--ship-name" && I + 1 < Argc) {
      X.ShipName = Argv[++I];
    } else if (!Arg.empty() && Arg[0] != '-' && X.LogPath.empty()) {
      X.LogPath = Arg;
    } else {
      std::fprintf(stderr,
                   "usage: %s [log-file] [--segment-bytes N] [--snapshots] "
                   "[--adaptive] [--monitor-socket PATH] "
                   "[--monitor-hold-ms N] [--forensics PREFIX] "
                   "[--ship ENDPOINT] [--ship-name NAME]\n",
                   Argv[0]);
      return 2;
    }
  }
  if (X.Snapshots && X.SegmentBytes == 0) {
    std::fprintf(stderr, "error: --snapshots requires --segment-bytes\n");
    return 2;
  }
  if (!X.ShipEndpoint.empty() &&
      (X.LogPath.empty() || X.SegmentBytes == 0 || X.Snapshots)) {
    std::fprintf(stderr, "error: --ship requires a log-file and "
                         "--segment-bytes, and excludes --snapshots\n");
    return 2;
  }
  std::printf("== the README snippet (correct multiset, four calls) ==\n");
  readmeQuickstart();
  std::printf("  clean\n\n");

  std::printf("== buggy multiset (Fig. 5: FindSlot reserves without "
              "re-checking) ==\n");
  bool Caught = false;
  for (uint64_t Seed = 1; Seed <= 20 && !Caught; ++Seed) {
    // Forensics apply to the buggy run: a violation there flushes its
    // flight-recorder bundle (telemetry is needed for the prefix run
    // only if a monitor is attached, which main() wires to the clean
    // run instead).
    RunExtras BX;
    BX.ForensicPrefix = X.ForensicPrefix;
    VerifierReport Rep = runOnce(/*Buggy=*/true, Seed, BX);
    if (!Rep.ok()) {
      Caught = true;
      std::printf("  VYRD caught the bug (seed %llu):\n",
                  static_cast<unsigned long long>(Seed));
      std::printf("    %s\n", Rep.Violations.front().str().c_str());
      for (const std::string &F : Rep.ForensicFiles)
        std::printf("    forensics: %s\n", F.c_str());
    }
  }
  if (!Caught) {
    std::printf("  bug did not fire in 20 seeds (unexpected)\n");
    return 1;
  }

  std::printf("\n== corrected multiset ==\n");
  RunExtras CX = X;
  CX.ForensicPrefix.clear(); // the clean run has nothing to flush
  VerifierReport Rep = runOnce(/*Buggy=*/false, 1, CX);
  std::printf("  %s", Rep.str().c_str());
  if (!X.LogPath.empty())
    std::printf("  log recorded to %s (try vyrd-trace / vyrd-check)\n",
                X.LogPath.c_str());
  return Rep.ok() ? 0 : 1;
}
