//===- CheckerService.h - The checker half of a verification run -*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CheckerService is the consumer half of the split Verifier: everything
/// downstream of the log — the per-object Spec + Replayer +
/// RefinementChecker pipelines, the demux that routes record batches to
/// them, the optional checker worker pool, snapshot cuts, violation
/// publication and forensic bundles, and the final per-object report.
/// It knows nothing about where records come from: the in-process
/// Verifier's pump feeds it straight from the shared log (the historical
/// single-process pipeline, bit-for-bit), `vyrd-checkd` feeds it from
/// segments arriving over a SocketTransport in another process entirely
/// (docs/SHIPPING.md), and epochCheck and the shipping degrade path feed
/// it a recorded chain through feedLog.
///
/// Threading contract (inherited from the monolithic Verifier): one
/// driving thread — the pump — calls addObject (before any routing),
/// routeRange, takeSnapshot, checkedWatermark and finishChecking;
/// violationSeen, liveViolations and forensicFiles are safe from any
/// thread. With startPool(), routed batches are checked on pool workers
/// with per-object affinity; without it they are fed inline on the
/// driving thread.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_CHECKERSERVICE_H
#define VYRD_CHECKERSERVICE_H

#include "vyrd/Backpressure.h"
#include "vyrd/Checker.h"
#include "vyrd/Replayer.h"
#include "vyrd/Snapshot.h"
#include "vyrd/Spec.h"
#include "vyrd/Telemetry.h"
#include "vyrd/Trace.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vyrd {

struct VerifierReport;

/// Builds the spec + replayer pipeline for one registered object of a
/// recorded run. Every checker built from a recording — an epoch task,
/// a shipped session — calls it once per object, so the factory must be
/// thread-safe and must produce the same spec the recording run
/// registered for \p Id (same constructor parameters; sidecar blobs
/// restore into it). \p Name receives the object's report name.
/// \returns false when \p Id is not a known object; the caller treats
/// that as an error, since the object's records could not be checked.
using PipelineFactory = std::function<bool(
    ObjectId Id, std::string &Name, std::unique_ptr<Spec> &S,
    std::unique_ptr<Replayer> &R)>;

/// Configuration of the checker half (the slice of VerifierConfig it
/// needs; the Verifier copies these fields over, vyrd-checkd fills them
/// from its command line).
struct CheckerServiceOptions {
  /// Bound on the records pending across the pool's per-object batch
  /// queues (>= 1; the log's reader queue has its own). SIZE_MAX, the
  /// default, is no bound.
  size_t MaxPendingRecords = SIZE_MAX;
  /// Forensic bundle prefix; empty disables bundles (see
  /// VerifierConfig::ForensicPrefix for the full contract).
  std::string ForensicPrefix;
  /// Chain base path snapshot sidecars are written next to
  /// (VerifierConfig::LogFilePath); empty disables takeSnapshot.
  std::string SnapshotBase;
};

/// The per-object checking pipelines plus everything that drives them.
class CheckerService {
public:
  explicit CheckerService(CheckerServiceOptions Opts);
  ~CheckerService();

  CheckerService(const CheckerService &) = delete;
  CheckerService &operator=(const CheckerService &) = delete;

  /// Observability wiring; call before addObject (the checkers capture
  /// the telemetry hub at construction). All may stay null.
  void setTelemetry(Telemetry *T) { Telem = T; }
  void setTracer(TraceRecorder *T) { Tracer = T; }

  /// Registers one verified object (see Verifier::registerObject for the
  /// contract; \p R may be null in CM_IORefinement mode). Must precede
  /// startPool() and any routing.
  ObjectId addObject(std::string Name, std::unique_ptr<Spec> S,
                     std::unique_ptr<Replayer> R, CheckerConfig CC);

  /// Registers objects 0 .. \p NumObjects - 1 as \p Factory builds them,
  /// all with checker settings \p CC. Fails (with \p Err set) on the
  /// first id the factory does not know.
  bool addObjects(size_t NumObjects, const PipelineFactory &Factory,
                  const CheckerConfig &CC, std::string &Err);

  size_t objectCount() const { return Objects.size(); }
  /// The check mode object \p Id was registered with (selects the hook
  /// logging level on the producer side).
  CheckMode objectMode(ObjectId Id) const;

  /// Starts \p NumWorkers checker pool workers. Without this call every
  /// batch is fed inline on the routing thread (the historical
  /// CheckerThreads = 1 behavior).
  void startPool(unsigned NumWorkers);

  /// Demuxes Batch[Begin, End) per object and dispatches/feeds each
  /// object's slice. Records whose ObjectId matches no registered object
  /// are counted and surface as a VK_Instrumentation violation in the
  /// report.
  void routeRange(std::vector<Action> &Batch, size_t Begin, size_t End,
                  TelemetryCell *TC);

  /// The sequence number below which every routed record has been fed to
  /// its checker, capped at \p Upper (the caller's routed frontier).
  /// Drives BufferedLog::reclaimCheckedPrefix.
  uint64_t checkedWatermark(uint64_t Upper);

  /// What feedLog found: the feed frontier and whether the file could be
  /// read to its end.
  struct LogFeed {
    /// Highest Seq fed + 1 (0 when nothing was fed).
    uint64_t SeqHwm = 0;
    /// The file could not be opened.
    bool Unopenable = false;
    /// A header or record did not decode; records before it were fed.
    bool Malformed = false;

    bool ok() const { return !Unopenable && !Malformed; }
  };

  /// Reads the recorded log or segment chain at \p Path (walking the
  /// chain onward from that file) and routes every record with Seq below
  /// \p EndSeq, in batches, through routeRange. The one path from a
  /// recording to the checkers: epoch slices and the shipping degrade
  /// path's local re-check both feed through it.
  LogFeed feedLog(const std::string &Path, uint64_t EndSeq);

  /// Aligns every checker on the cut (quiescing the pool), serializes
  /// the checkers and writes the sidecar for segment \p SegIndex next to
  /// Options.SnapshotBase. No-op when SnapshotBase is empty.
  void takeSnapshot(uint64_t SegIndex, uint64_t CutSeq);

  /// The in-memory half of takeSnapshot: appends every checker's state
  /// at this point to \p SF's objects. A checker that cannot be
  /// serialized (violation recorded, or a spec / replayer without
  /// snapshot support) is left out. \returns true when every object made
  /// it into the cut. Without a pool, or once the pool is quiescent.
  bool cutSnapshot(SnapshotFile &SF);

  /// Seeds every checker from \p Snap (a v5 sidecar) before any record
  /// is routed — the cold-pickup path for a chain whose prefix was
  /// reclaimed. Fails (with \p Err set) when an object has no blob or a
  /// blob does not restore.
  bool restoreFromSnapshot(const SnapshotFile &Snap, std::string &Err);

  /// End of stream: drains and joins the pool, finishes every checker
  /// and publishes final violations. Idempotent.
  void finishChecking();

  /// Thread-safe peek: has any checker found a violation yet?
  bool violationSeen() const {
    return ViolationFlag.load(std::memory_order_acquire);
  }

  /// Fills the checking side of \p R: per-object reports, the merged
  /// stats and witness-ordered violation list, and the
  /// VK_Instrumentation violation for unrouted records. Call after
  /// finishChecking(), or on a paused mid-stream slice whose open tail
  /// belongs to a later one; log-side fields (LogRecords, LogBytes, the
  /// log's backpressure stats) are the caller's.
  void buildReport(VerifierReport &R);
  /// Records routed so far whose ObjectId matched no registered object,
  /// and the Seq of the first. Driving thread only.
  uint64_t unroutedRecords() const { return UnroutedRecords; }
  uint64_t firstUnroutedSeq() const { return FirstUnroutedSeq; }
  /// The VK_Instrumentation violation buildReport files for \p Count
  /// unrouted records, the first at \p FirstSeq.
  static Violation unroutedViolation(uint64_t Count, uint64_t FirstSeq);
  /// Merges the pool's admission accounting into \p S (no-op without a
  /// pool).
  void mergePoolStats(BackpressureStats &S) const;
  /// Fills the checking side's pulled metrics into \p S: one
  /// ObjectTelemetry per object and checker_actions. Safe from any
  /// thread once every object is registered (the caller publishes that).
  void pullTelemetry(TelemetrySnapshot &S) const;

  /// Copies of the live (monitor-served) state. Safe from any thread.
  std::vector<Violation> liveViolations() const;
  std::vector<std::string> forensicFiles() const;

private:
  struct ObjectState;
  class CheckerPool;
  friend class CheckerPool;

  void feedObject(ObjectState &O, const std::vector<Action> &Batch,
                  TelemetryCell *TC);
  void publishObjectViolations(ObjectState &O);
  void maybeWriteForensic(ObjectState &O);

  CheckerServiceOptions Opts;
  Telemetry *Telem = nullptr;
  TraceRecorder *Tracer = nullptr;
  std::vector<std::unique_ptr<ObjectState>> Objects;
  std::unique_ptr<CheckerPool> Pool;
  /// Demux scratch, one slot per object (sized on first routeRange).
  std::vector<std::vector<Action>> Route;
  std::atomic<bool> ViolationFlag{false};
  /// Records whose ObjectId matched no registered object. Driving thread
  /// only.
  uint64_t UnroutedRecords = 0;
  uint64_t FirstUnroutedSeq = 0;
  bool Finished = false;

  /// Violations and forensic paths published as checkers record them.
  /// Written by whichever thread owns the reporting checker, read by the
  /// monitor thread and report assembly.
  struct LiveState {
    mutable std::mutex M;
    std::vector<Violation> Violations;
    std::vector<std::string> ForensicFiles;
  };
  LiveState Live;
};

} // namespace vyrd

#endif // VYRD_CHECKERSERVICE_H
