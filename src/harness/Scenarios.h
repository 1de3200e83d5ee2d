//===- Scenarios.h - Canned verification scenarios --------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One factory per program studied in the paper's evaluation (Sec. 7 /
/// Table 1): the array multiset, the BST multiset, the Vector and
/// StringBuffer models, the Boxwood Cache, and the B-link tree. A Scenario
/// bundles the instrumented data structure, its specification and
/// replayer, the verifier (per the requested run mode) and the random
/// operation mix, so tests, benchmarks and examples share one setup path.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_HARNESS_SCENARIOS_H
#define VYRD_HARNESS_SCENARIOS_H

#include "harness/Workload.h"
#include "vyrd/Epoch.h"
#include "vyrd/Verifier.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace vyrd {
namespace harness {

/// How much of the pipeline a scenario runs.
enum class RunMode : uint8_t {
  /// No logging at all ("Program alone", Tables 2 and 3).
  RM_Bare,
  /// Log records for I/O refinement, but never check ("I/O Ref." logging
  /// overhead column of Table 2).
  RM_LogOnlyIO,
  /// Log records for view refinement, but never check.
  RM_LogOnlyView,
  /// Online I/O refinement checking (verification thread).
  RM_OnlineIO,
  /// Online view refinement checking.
  RM_OnlineView,
  /// Log during the run; check when finish() is called ("VYRD alone
  /// (off-line)" column of Table 3).
  RM_OfflineIO,
  RM_OfflineView,
};

/// Whether a mode performs refinement checking.
bool modeChecks(RunMode M);
/// Whether a mode records log entries.
bool modeLogs(RunMode M);
/// Printable mode name.
const char *runModeName(RunMode M);

/// The programs of Table 1, plus this reproduction's extensions.
enum class Program : uint8_t {
  P_MultisetVector, // array multiset ("Multiset-Vector" row)
  P_MultisetBst,    // BST multiset ("Multiset-BinaryTree" row)
  P_Vector,         // java.util.Vector model
  P_StringBuffer,   // java.util.StringBuffer model
  P_BLinkTree,      // Boxwood B-link tree
  P_Cache,          // Boxwood cache
  P_ScanFs,         // MiniScan file system (extension, Sec. 7.3 spirit)
  P_Hashtable,      // java.util.Hashtable model (extension)
  P_Queue,          // two-lock bounded FIFO queue (extension)
};

const char *programName(Program P);
/// The program's shipping key: the name a producer's Hello carries and
/// vyrd-checkd's pipeline resolver understands ("multiset", "queue", ...;
/// the composite scenario ships as "composite").
const char *programShipKey(Program P);
/// The injected bug's description (the Table 1 "error" column).
const char *programBugName(Program P);
/// The six programs of the paper's Table 1, in its order.
std::vector<Program> allPrograms();
/// Programs this reproduction adds beyond the paper's six.
std::vector<Program> extensionPrograms();

/// Knobs for scenario construction.
struct ScenarioOptions {
  Program Prog = Program::P_MultisetVector;
  RunMode Mode = RunMode::RM_OnlineView;
  /// Inject the program's Table 1 bug.
  bool Buggy = false;
  /// Also write the log to this file. In the logging-only modes the log
  /// keeps its records in memory (readable through Scenario::L after
  /// finish) exactly when this is empty.
  std::string LogPath;
  /// Ignored: BufferedLog is the only log. Kept for source compatibility;
  /// will be removed.
  bool Buffered = false;
  /// Stop recording violations after the first (Table 1 protocol).
  bool StopAtFirstViolation = false;
  /// Ablation: rebuild views from scratch at every commit.
  bool FullViewRecompute = false;
  /// Ablation (Sec. 8): compare views only at quiescent commits.
  bool QuiescentOnly = false;
  /// Audit the incremental views every N commits (0 = never).
  unsigned AuditPeriod = 0;
  /// Attach the last N log records to each violation (0 = off).
  unsigned ContextRecords = 0;
  /// Pipeline observability (metrics, lag watchdog, trace recording);
  /// applies to the checking modes, where a Verifier exists to host the
  /// hub (docs/OBSERVABILITY.md).
  TelemetryOptions Telemetry;
  /// Accumulate the Table 3 phase timings in CheckerStats.
  bool CollectTimings = false;
  /// Size of the verifier's checker pool in the online modes (1 = check
  /// inline on the consumption thread, the historical behavior). Ignored
  /// in the offline/log-only modes, where the pool is not applicable.
  unsigned CheckerThreads = 1;
  /// Bound + admission policy for the pipeline's queues, and segment
  /// rotation for file-backed logs (see Backpressure.h). Passed through
  /// to VerifierConfig::Backpressure in the checking modes.
  BackpressureConfig Backpressure;
  /// Self-tuning pipeline (VerifierConfig::Adaptive): adaptive pump batch
  /// sizing and, with EscalatePolicy, runtime escalation of the admission
  /// policy (see Adaptive.h). Online checking modes only.
  AdaptiveConfig Adaptive;
  /// Write snapshot sidecars at segment cuts (VerifierConfig::Snapshots;
  /// requires a file-backed log with Backpressure.SegmentBytes > 0). The
  /// recorded chain then supports `vyrd-check --resume` / `--epochs`.
  bool Snapshots = false;
  /// Live monitor endpoint (VerifierConfig::Monitor): when SocketPath is
  /// set, the verifier serves vyrd-mon clients on that unix socket.
  /// Requires Telemetry.Enabled (docs/OBSERVABILITY.md).
  MonitorOptions Monitor;
  /// Violation forensics (VerifierConfig::ForensicPrefix): when set, the
  /// first violation flushes a `<prefix>.<object>.forensic.json` bundle.
  std::string ForensicPrefix;
  /// Segment shipping to a remote checker fleet
  /// (VerifierConfig::Shipping; docs/SHIPPING.md). When Endpoint is set,
  /// the online modes stream closed segments to a vyrd-checkd service
  /// instead of checking locally; ViewLevel and (when empty) Program are
  /// filled in from the scenario's mode and program.
  ShipperOptions Shipping;
};

/// A ready-to-run verification scenario.
struct Scenario {
  std::string Name;
  /// One random method call; receives the thread RNG, two pool keys and
  /// the progress in [0, 1].
  std::function<void(Rng &, int64_t, int64_t, double)> Op;
  /// Compression step for programs that have one (empty otherwise).
  std::function<void()> BackgroundOp;
  /// The verifier (null in Bare/LogOnly modes).
  Verifier *V = nullptr;
  /// The log (null in Bare mode).
  Log *L = nullptr;
  /// Completes the run: closes the log and finishes checking (if any).
  /// Must be called exactly once.
  std::function<VerifierReport()> Finish;

  /// Names of the verified objects in ObjectId order. Single-object
  /// scenarios leave this empty (their one object is anonymous).
  std::vector<std::string> Objects;

  /// Ownership of the underlying objects.
  std::vector<std::shared_ptr<void>> Owned;
};

/// Builds the scenario described by \p O.
Scenario makeScenario(const ScenarioOptions &O);

/// Builds the composite multi-object scenario: an array multiset, a
/// Boxwood cache, a B-link tree and a bounded queue all verified by one
/// Verifier (one shared log, four registered objects). \p O.Prog is
/// ignored; \p O.Buggy injects the multiset's Table 1 bug, so any
/// violation must be attributed to the "multiset" object.
Scenario makeCompositeScenario(const ScenarioOptions &O);

/// PipelineFactory (see Epoch.h) that rebuilds the spec + replayer of the
/// single object makeScenario registers for \p P, with the same
/// constructor parameters — so sidecar blobs recorded by the scenario
/// restore into it. \p ViewLevel must match the recording's check mode
/// (the replayer is only built for view refinement, mirroring
/// wireScenario). Pass NumObjects = 1 to epochCheck.
PipelineFactory makeProgramPipeline(Program P, bool ViewLevel);

/// PipelineFactory mirroring makeCompositeScenario's four objects
/// (multiset, cache, blinktree, queue in ObjectId order). Pass
/// NumObjects = 4 to epochCheck.
PipelineFactory makeCompositePipeline(bool ViewLevel);

} // namespace harness
} // namespace vyrd

#endif // VYRD_HARNESS_SCENARIOS_H
