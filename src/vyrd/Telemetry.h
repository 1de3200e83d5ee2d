//===- Telemetry.h - Pipeline metrics, lag gauge, watchdog ------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability for the verification pipeline: lock-free per-thread
/// counters and fixed-bucket histograms covering every stage
/// (instrumentation hooks, log append, flusher merge, checker feed, view
/// comparison), a checker-lag gauge (distance in sequence numbers between
/// the newest producer ticket and the last record the checker consumed), an
/// optional sampler thread that records the lag over time, and a watchdog
/// that reports a stalled verifier after a configurable quiet period.
///
/// Design constraints (docs/OBSERVABILITY.md has the full metric list):
///
///  * The hot path must stay hot. Each thread writes to its own cell
///    (registered on first use, like BufferedLog's shards), so an update
///    is one relaxed load+store on an exclusively owned cache line — no
///    RMW, no sharing. Readers (snapshot(), the sampler) read the same
///    atomics relaxed; totals are exact once the writers are quiescent and
///    a close approximation while they run.
///  * Instrumented call sites hold a `Telemetry *` (or a cached
///    `TelemetryCell *`) that is null when telemetry is off, so the
///    disabled path is one predictable branch. Defining
///    VYRD_DISABLE_TELEMETRY turns `telemetryCompiledIn()` into a
///    compile-time false and the guarded sites fold away entirely.
///  * Latency histograms on the append path are *sampled* (every 64th
///    record) so the clock reads cannot dominate a ~25 ns append.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_TELEMETRY_H
#define VYRD_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vyrd {

/// Compile-time switch: with VYRD_DISABLE_TELEMETRY defined every guarded
/// call site (`if (telemetryCompiledIn() && Cell) ...`) is dead code.
constexpr bool telemetryCompiledIn() {
#ifdef VYRD_DISABLE_TELEMETRY
  return false;
#else
  return true;
#endif
}

/// Monotonic nanoseconds (CLOCK_MONOTONIC); the pipeline's one time base.
uint64_t telemetryNowNanos();

/// Event counters, one slot per thread cell. Names/units: counterName().
enum class Counter : uint8_t {
  /// Records emitted by instrumentation hooks (call/ret/commit/write/...).
  C_HookRecords,
  /// Records appended to the log (any backend, any producer).
  C_LogAppends,
  /// Backoff rounds spent waiting for shard-ring space (BufferedLog).
  C_AppendStalls,
  /// Flusher rounds that merged at least one record into the global order.
  C_FlushBatches,
  /// Records the flusher merged into the global order.
  C_FlushedRecords,
  /// Reorder-ring regrowths (a producer stalled between ticket and
  /// publish while others ran more than a ring ahead).
  C_ReorderGrows,
  /// Batches the verification thread pulled from the log.
  C_CheckerBatches,
  /// Actions fed to the refinement checker.
  C_CheckerActions,
  /// Sampler iterations that recorded a checker-lag sample.
  C_LagSamples,
  /// Watchdog stall reports (consumer quiet too long with work pending).
  C_WatchdogStalls,
  /// Observer evaluations answered from the checker's memo table (incl.
  /// same-version skips) vs answered by an actual Spec::returnAllowed
  /// call. Flushed once per checker at finish().
  C_ObsMemoHits,
  C_ObsMemoMisses,
  /// Records dropped by the BP_Shed backpressure policy (whole observer
  /// executions; see docs/ARCHITECTURE.md, "Bounded pipeline").
  C_ShedRecords,
  /// Records that bypassed an over-limit in-memory queue and were
  /// re-read from disk (BP_SpillToDisk).
  C_SpilledRecords,
  /// Appends that had to wait for queue space (BP_Block).
  C_BlockedAppends,
  /// Log segment files created / reclaimed (SegmentSink rotation and
  /// checked-prefix deletion).
  C_SegmentsCreated,
  C_SegmentsReclaimed,
  /// Snapshot sidecars written at segment cuts / cuts where the snapshot
  /// was skipped (late cut on an async flusher, a dirty checker, or an
  /// unsupported spec) / sidecars loaded by a resuming or epoch checker
  /// (docs/SNAPSHOTS.md).
  C_SnapshotWrites,
  C_SnapshotSkips,
  C_SnapshotLoads,
  /// Epochs fully checked by epochCheck (one per (object, epoch) task).
  C_EpochsChecked,
  /// Adaptive-pipeline policy transitions (AdaptiveController): rungs
  /// climbed / descended on the BP_Block -> BP_SpillToDisk -> BP_Shed
  /// escalation ladder.
  C_PolicyEscalations,
  C_PolicyDeescalations,
  /// gaugeSub calls that would have driven a gauge below zero (mismatched
  /// add/sub pair somewhere); the gauge is clamped at 0 instead of
  /// wrapping, and this counter flags the accounting bug.
  C_GaugeUnderflow,
  /// Segment shipping, producer side (docs/SHIPPING.md): closed segments
  /// / encoded bytes shipped to the remote checker, watermark acks
  /// received back, connect/send attempts that had to be retried, and
  /// records re-checked locally after a degrade to SD_LocalCheck.
  C_ShipSegments,
  C_ShipBytes,
  C_ShipAcks,
  C_ShipRetries,
  C_ShipFallbackRecords,
  /// Segment shipping, receiver side (vyrd-checkd): segments / records
  /// accepted and fed, frames rejected by their CRC, resyncs to the next
  /// frame magic after garbage or truncation, and partially transferred
  /// segments discarded at connection loss.
  C_ShipSegmentsRecv,
  C_ShipRecordsRecv,
  C_ShipCrcErrors,
  C_ShipResyncs,
  C_ShipPartialDrops,
  NumCounters
};

/// Fixed-bucket histograms (power-of-two buckets, see HistoSnapshot).
enum class Histo : uint8_t {
  /// Sampled latency of one log append, nanoseconds.
  H_AppendNs,
  /// Records merged per flusher emit round.
  H_FlushBatch,
  /// Pipeline occupancy at emit time: tickets issued but not yet merged
  /// (reorder ring + unpublished + undrained records).
  H_ReorderOccupancy,
  /// Records per batch the verification thread consumed.
  H_FeedBatch,
  /// Latency of feeding one batch through the checker, nanoseconds.
  H_FeedNs,
  /// Cost of one viewI/viewS comparison, nanoseconds.
  H_ViewCompareNs,
  /// Sampled checker lag, in sequence numbers (sampler thread).
  H_CheckerLag,
  /// Time one BP_Block append spent waiting for queue space, nanoseconds
  /// (every blocked append records; unblocked appends record nothing).
  H_BlockedNs,
  NumHistos
};

/// Instantaneous pipeline levels with high-watermark tracking. Unlike
/// counters (per-thread cells, summed at snapshot), gauges are shared
/// add/sub atomics on the hub: several stages move the same level (e.g.
/// the log's tail and the checker pool both hold pending records), so
/// the current value must be a single point of truth. Names: gaugeName().
enum class Gauge : uint8_t {
  /// Records admitted to an in-memory queue (log tail / pool pending)
  /// and not yet consumed by the checker side.
  G_PendingRecords,
  /// Estimated bytes those pending records pin (actionFootprintBytes).
  G_TailBytes,
  /// Log segment files currently on disk.
  G_SegmentsLive,
  /// (object, epoch) tasks currently being checked by epochCheck.
  G_EpochsInFlight,
  /// Records between the resume point's watermark and the end of the log
  /// at restore time: how much re-checking a cold restart saved relative
  /// to a from-zero replay would be (appendCount - watermark).
  G_RestartLag,
  /// The adaptive controller's current pump-batch target (records per
  /// pump loop / flusher drain quantum). Static pipelines leave it 0.
  G_PumpBatchTarget,
  /// The admission policy currently in force, as its BackpressurePolicy
  /// ordinal (0 = block, 1 = spill, 2 = shed). Written by the pump on
  /// escalation/de-escalation, read by the monitor sampler.
  G_PolicyActive,
  /// Remote-checker watermark: every record with Seq below this has been
  /// acked by the checker fleet (drives producer-side reclamation).
  G_ShipAckedWatermark,
  /// Closed segments queued at the shipper, not yet on the wire.
  G_ShipUnshippedSegments,
  NumGauges
};

constexpr size_t NumCounters = static_cast<size_t>(Counter::NumCounters);
constexpr size_t NumHistos = static_cast<size_t>(Histo::NumHistos);
constexpr size_t NumGauges = static_cast<size_t>(Gauge::NumGauges);
/// Bucket B holds values whose bit width is B: bucket 0 is {0}, bucket
/// B >= 1 covers [2^(B-1), 2^B - 1]. 40 buckets cover every value the
/// pipeline can produce (nanosecond latencies up to ~18 minutes).
constexpr size_t NumHistoBuckets = 40;

/// Metric metadata (for rendering and docs).
const char *counterName(Counter C);
const char *histoName(Histo H);
/// Unit suffix for a histogram ("ns", "records", "seq").
const char *histoUnit(Histo H);
const char *gaugeName(Gauge G);

/// One histogram's frozen contents.
struct HistoSnapshot {
  uint64_t Buckets[NumHistoBuckets] = {};
  uint64_t Count = 0;
  uint64_t Sum = 0;

  double mean() const { return Count ? double(Sum) / double(Count) : 0; }
  /// Upper bound of the bucket containing the \p P-th percentile
  /// (P in [0,100]); 0 when empty.
  uint64_t percentileBound(double P) const;
  uint64_t max() const; ///< upper bound of the highest non-empty bucket
};

/// Per-object pipeline counters at snapshot time (multi-object engine:
/// the demux routes records per verified object, each with its own
/// checker pipeline).
struct ObjectTelemetry {
  std::string Name;
  /// Records the demux routed to this object's pipeline.
  uint64_t Routed = 0;
  /// Records this object's checker has consumed.
  uint64_t Checked = 0;
  /// Routed - Checked: the object's private checker lag (records queued
  /// for the checker pool but not yet fed).
  uint64_t Backlog = 0;
};

/// A frozen, consistent-enough copy of every metric. Exact once writers
/// are quiescent (e.g. in VerifierReport); a close approximation live.
struct TelemetrySnapshot {
  uint64_t Counters[NumCounters] = {};
  HistoSnapshot Histos[NumHistos] = {};
  /// Gauge level at snapshot time and its all-time high-watermark.
  uint64_t Gauges[NumGauges] = {};
  uint64_t GaugeHwms[NumGauges] = {};
  /// Producer-minus-consumer distance at snapshot time (0 without a
  /// producer probe).
  uint64_t CheckerLag = 0;
  /// Watchdog state at snapshot time.
  bool Stalled = false;
  /// One entry per registered object, in object-id order; empty unless
  /// the hub saw Telemetry::registerObject.
  std::vector<ObjectTelemetry> Objects;

  uint64_t counter(Counter C) const {
    return Counters[static_cast<size_t>(C)];
  }
  const HistoSnapshot &histo(Histo H) const {
    return Histos[static_cast<size_t>(H)];
  }
  uint64_t gauge(Gauge G) const { return Gauges[static_cast<size_t>(G)]; }
  uint64_t gaugeHwm(Gauge G) const {
    return GaugeHwms[static_cast<size_t>(G)];
  }

  /// Multi-line human-readable rendering.
  std::string str() const;
  /// Machine-readable rendering: {"counters":{...},"histograms":{...},...}.
  std::string json() const;
};

/// One thread's private metric storage. Single writer (the owning
/// thread); concurrent relaxed readers. Obtained via Telemetry::cell()
/// and cacheable for the lifetime of the Telemetry object.
class alignas(64) TelemetryCell {
public:
  void count(Counter C, uint64_t N = 1) {
    std::atomic<uint64_t> &A = Counters[static_cast<size_t>(C)];
    A.store(A.load(std::memory_order_relaxed) + N,
            std::memory_order_relaxed);
  }

  void record(Histo H, uint64_t Value) {
    size_t B = bucketOf(Value);
    std::atomic<uint64_t> &A = Buckets[static_cast<size_t>(H)][B];
    A.store(A.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
    std::atomic<uint64_t> &S = Sums[static_cast<size_t>(H)];
    S.store(S.load(std::memory_order_relaxed) + Value,
            std::memory_order_relaxed);
  }

  static size_t bucketOf(uint64_t Value) {
    size_t B = 64 - static_cast<size_t>(__builtin_clzll(Value | 1));
    if (Value == 0)
      B = 0;
    return B < NumHistoBuckets ? B : NumHistoBuckets - 1;
  }

private:
  friend class Telemetry;

  std::atomic<uint64_t> Counters[NumCounters] = {};
  std::atomic<uint64_t> Buckets[NumHistos][NumHistoBuckets] = {};
  std::atomic<uint64_t> Sums[NumHistos] = {};
};

/// The per-pipeline telemetry hub: owns the thread cells, the consumer
/// gauge and the optional sampler/watchdog thread. One instance per
/// Verifier (or standalone in tests/benches). All methods thread-safe.
class Telemetry {
public:
  struct Options {
    /// Sampler period; 0 disables the sampler thread entirely.
    unsigned SampleIntervalUs = 0;
    /// Report a stall when the consumer gauge has not advanced for this
    /// long while the checker lag is non-zero. 0 disables the watchdog.
    /// Requires the sampler (stalls are detected at sample points).
    unsigned WatchdogQuietMs = 0;
    /// Returns the newest producer ticket (e.g. Log::appendCount). Called
    /// from the sampler thread and from checkerLag()/snapshot().
    std::function<uint64_t()> ProducerProbe;
    /// Invoked (from the sampler thread) once per detected stall episode.
    /// Default: a one-line warning on stderr.
    std::function<void(const std::string &)> StallReport;
  };

  Telemetry();
  explicit Telemetry(Options O);
  ~Telemetry();

  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  /// The calling thread's cell, registered on first use. The reference
  /// stays valid until the Telemetry object is destroyed; hot paths
  /// should cache it.
  TelemetryCell &cell();

  /// Convenience single-shot updates (cell lookup included).
  void count(Counter C, uint64_t N = 1) { cell().count(C, N); }
  void record(Histo H, uint64_t V) { cell().record(H, V); }

  /// Consumer gauge: sequence number up to which the checker has consumed
  /// the log (exclusive). Single logical writer (verification thread).
  void noteConsumed(uint64_t Seq) {
    Consumed.store(Seq, std::memory_order_relaxed);
  }
  uint64_t consumedSeq() const {
    return Consumed.load(std::memory_order_relaxed);
  }

  /// Producer ticket minus consumer gauge; 0 without a producer probe.
  uint64_t checkerLag() const;

  /// Gauge updates: shared atomics (see the Gauge enum for why these are
  /// not per-cell). gaugeAdd maintains the high-watermark; gaugeSet is
  /// for levels owned by one component (e.g. live segment count).
  void gaugeAdd(Gauge G, uint64_t N) {
    uint64_t Now = GaugeNow[static_cast<size_t>(G)].fetch_add(
                       N, std::memory_order_relaxed) +
                   N;
    raiseGaugeHwm(G, Now);
  }
  void gaugeSub(Gauge G, uint64_t N) {
    // Clamp at zero: a mismatched add/sub pair must not wrap the level to
    // ~2^64 (which would also poison the HWM via the next gaugeAdd).
    std::atomic<uint64_t> &A = GaugeNow[static_cast<size_t>(G)];
    uint64_t Cur = A.load(std::memory_order_relaxed);
    while (!A.compare_exchange_weak(Cur, Cur >= N ? Cur - N : 0,
                                    std::memory_order_relaxed))
      ;
    if (Cur < N)
      count(Counter::C_GaugeUnderflow);
  }
  void gaugeSet(Gauge G, uint64_t V) {
    // HWM first, value second (release): a snapshot that sees the value
    // also sees a HWM at least as high.
    raiseGaugeHwm(G, V);
    GaugeNow[static_cast<size_t>(G)].store(V, std::memory_order_release);
  }
  uint64_t gauge(Gauge G) const {
    return GaugeNow[static_cast<size_t>(G)].load(std::memory_order_relaxed);
  }
  uint64_t gaugeHwm(Gauge G) const {
    return GaugeHwm[static_cast<size_t>(G)].load(std::memory_order_relaxed);
  }

  /// Sum of one counter across every registered cell (convenience for
  /// watchdog messages that must not pay for a full snapshot).
  uint64_t counterTotal(Counter C) const;

  /// Registers a verified object's counter pair (multi-object engine).
  /// \p Obj ids must be dense and registered before the pipeline starts;
  /// \p ObjName labels the snapshot entry. Idempotent per id.
  void registerObject(uint32_t Obj, std::string ObjName);
  /// Demux accounting: \p N more records were routed to \p Obj.
  void noteObjectRouted(uint32_t Obj, uint64_t N);
  /// Checker accounting: \p Obj's checker consumed \p N more records.
  void noteObjectChecked(uint32_t Obj, uint64_t N);
  /// Records routed to but not yet checked for \p Obj (0 for unknown ids).
  uint64_t objectBacklog(uint32_t Obj) const;

  /// Watchdog verdict: is the consumer currently quiet with work pending?
  bool stalled() const { return StallFlag.load(std::memory_order_acquire); }

  /// Starts/stops the sampler thread (the constructor starts it when
  /// Options::SampleIntervalUs is non-zero). Idempotent.
  void startSampler();
  void stopSampler();

  TelemetrySnapshot snapshot() const;

private:
  void samplerMain();

  void raiseGaugeHwm(Gauge G, uint64_t Now) {
    std::atomic<uint64_t> &H = GaugeHwm[static_cast<size_t>(G)];
    uint64_t Cur = H.load(std::memory_order_relaxed);
    while (Now > Cur &&
           !H.compare_exchange_weak(Cur, Now, std::memory_order_relaxed))
      ;
  }

  Options Opts;
  const uint64_t InstanceId;

  mutable std::mutex RegistryM;
  std::vector<std::unique_ptr<TelemetryCell>> CellByTid;

  /// Per-object counter pairs, index = object id. Guarded by RegistryM
  /// (updates are per consumed batch, not per record, so the lock is off
  /// the hot path); the atomics let snapshot() read mid-update values.
  struct ObjectCounters {
    std::string Name;
    std::atomic<uint64_t> Routed{0};
    std::atomic<uint64_t> Checked{0};
  };
  std::vector<std::unique_ptr<ObjectCounters>> ObjectsById;

  std::atomic<uint64_t> Consumed{0};
  std::atomic<bool> StallFlag{false};

  std::atomic<uint64_t> GaugeNow[NumGauges] = {};
  std::atomic<uint64_t> GaugeHwm[NumGauges] = {};

  std::thread Sampler;
  std::atomic<bool> SamplerStop{false};
  bool SamplerRunning = false;
};

} // namespace vyrd

#endif // VYRD_TELEMETRY_H
