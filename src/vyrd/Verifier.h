//===- Verifier.h - Multi-object verification engine ------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifier owns one shared execution log and, per *registered object*, a
/// Spec + Replayer + RefinementChecker pipeline. Records are stamped with
/// their object's id at the hooks, the consumption loop demultiplexes each
/// batch per object (Sec. 6.2 of the paper: refinement is checked object by
/// object), and the per-object pipelines run either inline on the
/// consumption thread (CheckerThreads = 1, the historical behavior) or on
/// a pool of verification workers with per-object affinity, so one
/// object's records are always checked in log order while different
/// objects proceed in parallel.
///
/// Since the producer/checker split the Verifier is a thin composition of
/// two halves: the capture pipeline (hooks -> log backend -> segment sink)
/// it owns directly, and a CheckerService holding the per-object checking
/// pipelines. In the default, in-process wiring the pump thread feeds the
/// service straight from the log — bit-identical to the historical
/// monolithic engine. With VerifierConfig::Shipping set, the checker half
/// runs in a remote `vyrd-checkd` process instead: the pump ships closed
/// log segments through a SocketTransport and reclaims them as the remote
/// checker acks its watermark (docs/SHIPPING.md).
///
/// The check runs *online* — a dedicated consumption thread drains the log
/// concurrently with the program, as the VYRD tool does — or *offline*,
/// replaying the completed log when finish() is called (the "VYRD alone"
/// column of Table 3).
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_VERIFIER_H
#define VYRD_VERIFIER_H

#include "vyrd/BufferedLog.h"
#include "vyrd/Checker.h"
#include "vyrd/CheckerService.h"
#include "vyrd/Instrument.h"
#include "vyrd/Log.h"
#include "vyrd/Monitor.h"
#include "vyrd/Replayer.h"
#include "vyrd/Spec.h"
#include "vyrd/Telemetry.h"
#include "vyrd/Trace.h"
#include "vyrd/Transport.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace vyrd {

/// The Log implementation a Verifier constructs. BufferedLog is the only
/// one; the enum survives for source compatibility and will go away.
enum class LogBackend : uint8_t {
  /// Sharded per-thread rings merged in ticket order by the reader or a
  /// flusher thread (BufferedLog); also writes LogFilePath when set.
  LB_Buffered,
};

/// Observability options for a Verifier (docs/OBSERVABILITY.md).
struct TelemetryOptions {
  /// Master switch: construct a Telemetry hub and thread it through the
  /// pipeline (hooks, log backend, checker feed, view comparison); the
  /// final snapshot lands in VerifierReport::Telemetry.
  bool Enabled = false;
  /// Period of the checker-lag sampler thread; 0 = no sampler.
  unsigned SampleIntervalUs = 0;
  /// Report a stalled verifier (lag pending, consumer quiet) after this
  /// many milliseconds; 0 = no watchdog. Implies a sampler (1 ms default
  /// period when SampleIntervalUs is 0).
  unsigned WatchdogQuietMs = 0;
  /// When non-empty, record the run as Chrome/Perfetto trace_event JSON
  /// and write it to this path at finish(). Works with or without
  /// Enabled; see TraceRecorder for the event mapping.
  std::string TraceFilePath;
};

/// Configuration for a Verifier.
struct VerifierConfig {
  /// Default checker configuration, applied to every registered object
  /// that does not pass its own (and to the single object the legacy
  /// spec+replayer constructor registers).
  CheckerConfig Checker;
  /// Run the checkers concurrently with the program. When false, records
  /// are buffered and checked when finish() is called.
  bool Online = true;
  /// When set, the log also writes every record to this file (or, with
  /// Backpressure.SegmentBytes > 0, to a segment chain based here).
  std::string LogFilePath;
  /// Log implementation to construct (there is only BufferedLog).
  LogBackend Backend = LogBackend::LB_Buffered;
  /// Log shard capacity (records per producer thread).
  size_t ShardCapacity = 1024;
  /// Record bound for every queue between the hooks and the checkers:
  /// the log's reader queue and the checker pool's per-object batch
  /// queues (see Backpressure.h). Disabled by default: the constructor
  /// then hands each stage a bound of SIZE_MAX, which it never meets.
  /// SegmentBytes > 0 additionally rotates the log file into a segment
  /// chain that is trimmed as checkers advance.
  BackpressureConfig Backpressure;
  /// Write spec-state snapshot sidecars at segment cuts (docs/SNAPSHOTS.md):
  /// whenever the segmented log rotates, the pump aligns every object's
  /// checker exactly on the cut, serializes the checkers' resumable state
  /// and writes it as `<LogFilePath>.NNNNNN.snap` next to the new segment.
  /// A later `vyrd-check --resume` (or epochCheck) then restarts checking
  /// from the oldest live segment instead of record 0. Requires a
  /// LogFilePath with Backpressure.SegmentBytes > 0. Snapshots are
  /// best-effort: a cut is skipped (counted in C_SnapshotSkips) when a
  /// checker is dirty or its spec/replayer does not support
  /// serialization.
  bool Snapshots = false;
  /// Size of the checker pool. 1 (the default) feeds every object's
  /// checker inline on the consumption thread — exactly the historical
  /// single-threaded behavior. N > 1 starts N verification workers that
  /// pick up per-object record batches; one object is owned by at most
  /// one worker at a time, so each object's records are still checked in
  /// log order. Requires Online (the offline pass is a synchronous replay
  /// on the caller's thread). Ignored when Shipping is enabled (the
  /// remote service sizes its own pool).
  unsigned CheckerThreads = 1;
  /// Metrics, lag watchdog and tracing.
  TelemetryOptions Telemetry;
  /// Live introspection endpoint (docs/OBSERVABILITY.md, "Live
  /// monitoring"): when Monitor.SocketPath is set, a dedicated server
  /// thread answers `vyrd-mon` clients over a unix-domain socket for the
  /// lifetime of the Verifier. Reads only Telemetry::snapshot() and the
  /// published violation list, so attached clients cost the hot path
  /// nothing. Requires Telemetry.Enabled.
  MonitorOptions Monitor;
  /// Violation forensics (docs/OBSERVABILITY.md, "Forensic bundles"):
  /// when non-empty, every object's checker runs a flight recorder
  /// (FlightRecorderDepth defaults to 64 unless the checker config sets
  /// its own) and the first violation per object is flushed immediately
  /// as `<ForensicPrefix>.<object>.forensic.json`. Paths land in
  /// VerifierReport::ForensicFiles and are served by the monitor.
  std::string ForensicPrefix;
  /// Remote checking (docs/SHIPPING.md): when Shipping.Endpoint is set,
  /// no checkers run in this process — the pump ships every closed log
  /// segment to the `vyrd-checkd` service at the endpoint, which resolves
  /// Shipping.Program into the per-object pipelines, checks the records
  /// and acks its watermark; acked segments are reclaimed here, so
  /// producer-side memory stays bounded end-to-end. Requires Online and
  /// a file-backed segmented log (Backpressure.SegmentBytes > 0); the
  /// verdict lives in the service's session report. If the fleet stays
  /// unreachable past the retry budget, finish() re-checks the surviving
  /// chain locally; a chain already partially reclaimed cannot be, and
  /// its unchecked suffix is reported as a VK_Degraded note.
  ShipperOptions Shipping;

  /// Checks the configuration for nonsensical combinations (an offline
  /// bounded pipeline, a zero-sized or offline multi-threaded checker pool,
  /// watchdog without telemetry, ...). Returns the empty string when the
  /// configuration is usable, otherwise a one-line description of the
  /// first problem. The Verifier constructor calls this and refuses
  /// (abort with the message on stderr) rather than silently falling back.
  std::string validate() const;
};

/// Per-object slice of a verification run's result.
struct ObjectReport {
  ObjectId Id = 0;
  /// Registration name ("" for the anonymous legacy single object).
  std::string Name;
  /// Violations attributed to this object (also present, object-stamped,
  /// in VerifierReport::Violations).
  std::vector<Violation> Violations;
  CheckerStats Stats;
  /// Log records routed to this object's pipeline.
  uint64_t Records = 0;

  bool ok() const { return Violations.empty(); }
};

/// Final result of a verification run.
struct VerifierReport {
  /// All violations across objects, in log (Seq) order, each stamped with
  /// the object it is attributed to.
  std::vector<Violation> Violations;
  /// Aggregated checker stats (sums; MaxQueueDepth is the per-object max).
  CheckerStats Stats;
  /// One entry per registered object, in id order.
  std::vector<ObjectReport> Objects;
  uint64_t LogRecords = 0;
  uint64_t LogBytes = 0;
  /// Admission accounting of the bounded pipeline (log backend + checker
  /// pool), all zero when backpressure never engaged. Exact counts,
  /// independent of telemetry.
  BackpressureStats Backpressure;
  /// Degradation notes (e.g. the VK_Degraded summary when shipping left
  /// an unverified suffix). Notes are advisories — they do not affect
  /// ok().
  std::vector<std::string> Notes;
  /// Final metric snapshot; all zeros unless TelemetryEnabled.
  TelemetrySnapshot Telemetry;
  bool TelemetryEnabled = false;
  /// Trace events written to TelemetryOptions::TraceFilePath (0 = no
  /// trace was recorded).
  uint64_t TraceEvents = 0;
  /// Forensic bundles written during the run (VerifierConfig::
  /// ForensicPrefix), in the order they were flushed.
  std::vector<std::string> ForensicFiles;
  /// Remote-checking summary (all zeros / empty when
  /// VerifierConfig::Shipping was off). A shipped run's verdict lives in
  /// the remote service's session report; ok() here only covers what was
  /// checked in this process (nothing, unless the run degraded into a
  /// local re-check).
  struct ShippingSummary {
    bool Enabled = false;
    std::string Endpoint;
    std::string StreamName;
    uint64_t SegmentsShipped = 0;
    uint64_t BytesShipped = 0;
    uint64_t Acks = 0;
    uint64_t Retries = 0;
    /// Exclusive: every record below it was fed by the remote checker.
    uint64_t AckedWatermark = 0;
    /// The remote service confirmed the whole stream at finish().
    bool FinalAckOk = false;
    /// The fleet became unreachable and the degrade path ran.
    bool Degraded = false;
    /// Records re-checked in this process by the degrade path.
    uint64_t FallbackRecords = 0;
  };
  ShippingSummary Shipping;

  bool ok() const { return Violations.empty(); }
  /// Renders the full report for diagnostics (includes the per-object
  /// breakdown for multi-object runs and the telemetry snapshot when
  /// enabled). Lists at most \p MaxListed violations; the count line
  /// always counts them all.
  std::string str(size_t MaxListed = SIZE_MAX) const;
  /// Machine-readable rendering of the whole report (stats, per-object
  /// breakdown, violations count, telemetry) as one JSON object.
  std::string json() const;
};

/// Owns the full verification pipeline: one log, N registered objects.
class Verifier {
public:
  /// Multi-object form: construct with a configuration, then call
  /// registerObject once per verified structure before start().
  explicit Verifier(VerifierConfig Config);

  /// Single-object convenience (the historical interface): registers one
  /// anonymous object with \p S / \p R and the config's checker settings;
  /// hooks() is bound to it. \p R may be null when Config.Checker.Mode is
  /// CM_IORefinement.
  Verifier(std::unique_ptr<Spec> S, std::unique_ptr<Replayer> R,
           VerifierConfig Config);
  ~Verifier();

  Verifier(const Verifier &) = delete;
  Verifier &operator=(const Verifier &) = delete;

  /// Registers a verified object: its records are demultiplexed into a
  /// dedicated RefinementChecker over \p S (shadow state via \p R, which
  /// may be null in CM_IORefinement mode). Returns the hooks to hand to
  /// that structure's instrumented implementation — they stamp every
  /// record with the object's id. Must be called before start().
  /// \p CC overrides the config-wide checker settings for this object.
  Hooks registerObject(std::string Name, std::unique_ptr<Spec> S,
                       std::unique_ptr<Replayer> R, CheckerConfig CC);
  Hooks registerObject(std::string Name, std::unique_ptr<Spec> S,
                       std::unique_ptr<Replayer> R = nullptr);

  /// The hooks of registered object \p Id (logging level matches that
  /// object's check mode).
  Hooks hooks(ObjectId Id) const;
  /// The hooks of the first registered object (single-object interface).
  Hooks hooks() const;

  /// Number of registered objects.
  size_t objectCount() const { return Svc->objectCount(); }

  /// Starts the consumption thread and (CheckerThreads > 1) the checker
  /// pool (online mode; no-op offline). At least one object must have
  /// been registered.
  void start();

  /// Closes the log, completes checking (joining the consumption thread
  /// and pool, or running the offline pass), and returns the aggregated
  /// per-object report.
  VerifierReport finish();

  /// Thread-safe peek: has any object's checker found a violation yet?
  /// Lets a test harness stop generating work once an error is caught
  /// (the Table 1 protocol). Always false while shipping to a healthy
  /// remote checker (the violations are found over there).
  bool violationSeen() const { return Svc->violationSeen(); }

  Log &log() { return *TheLog; }

  /// The pipeline's telemetry hub, or null when telemetry is disabled.
  /// Live metrics (stalled(), and snapshot() with its checker lag and
  /// per-object backlog) can be read while the run is in flight.
  Telemetry *telemetry() { return Telem.get(); }

  /// The live monitor endpoint, or null when VerifierConfig::Monitor is
  /// unset or its socket could not be bound.
  MonitorServer *monitor() { return Mon.get(); }

private:
  class MonitorAdapter;

  /// The in-process consumption loop: drains the log and feeds the
  /// checker service directly (the historical pipeline).
  void pump();
  /// The shipping consumption loop: drains the log, ships closed
  /// segments through the transport and reclaims acked ones. No local
  /// checking.
  void shipPump();
  /// The fleet-unreachable path at finish(), after a failed final ack:
  /// re-checks the surviving chain locally, or, when it was partially
  /// reclaimed, notes the unverified suffix. Appends notes to \p R.
  /// \returns true when the chain was re-checked locally (so the report
  /// carries a sound verdict and FallbackRecords should be filled).
  bool degradeShipping(VerifierReport &R, uint64_t FinalSeqExclusive);
  /// Telemetry::Options::Pull: the exact counts the log, the checker
  /// service and the transport keep (log_appends only before start()).
  void pullTelemetry(TelemetrySnapshot &S) const;

  VerifierConfig Config;
  std::unique_ptr<BufferedLog> TheLog;
  /// Declared after TheLog, which the sampler's pull reads; the
  /// destructor stops the sampler before Svc and Transport go.
  std::unique_ptr<Telemetry> Telem;
  std::unique_ptr<TraceRecorder> Tracer;
  /// The checker half (objects, demux, pool, live violations). Declared
  /// after Telem/Tracer, which its pipelines borrow.
  std::unique_ptr<CheckerService> Svc;
  /// Shipping mode only (Config.Shipping.enabled()).
  std::unique_ptr<SocketTransport> Transport;
  std::unique_ptr<SegmentShipper> Shipper;
  std::thread VerifyThread;
  /// Set (release) once start() has built the pool and transport.
  std::atomic<bool> Started{false};
  bool Done = false;
  /// Declared last (after Telem and Svc): the monitor thread reads both,
  /// so it must be joined first on destruction.
  std::unique_ptr<MonitorAdapter> MonSource;
  std::unique_ptr<MonitorServer> Mon;
};

} // namespace vyrd

#endif // VYRD_VERIFIER_H
