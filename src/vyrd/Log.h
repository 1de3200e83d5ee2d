//===- Log.h - Execution logs connecting program and verifier --*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The log decouples the instrumented program from refinement checking
/// (Sec. 4.2): implementation threads append records as they run; the
/// verification thread reads them, concurrently (online) or afterwards
/// (offline). The implementation is BufferedLog (BufferedLog.h): per-thread
/// sharded rings merged off the hot path into a reader queue, with an
/// optional file sink — the paper's "file whose tail is kept in memory".
/// This header keeps the abstract interface and the file reader.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_LOG_H
#define VYRD_LOG_H

#include "vyrd/Action.h"
#include "vyrd/Backpressure.h"
#include "vyrd/Serialize.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace vyrd {

class Telemetry;

/// The producer side of a log: the handle instrumentation hooks append
/// through. Log itself is a LogWriter (append forwards to the log), and
/// sharded backends hand out one writer per producer thread so the hot
/// path never touches shared state (see Log::writer).
class LogWriter {
public:
  virtual ~LogWriter();

  /// Appends \p A, assigning its sequence number. The returned number is a
  /// total order consistent with the order appends become visible (the
  /// witness order the checker relies on).
  virtual uint64_t append(Action A) = 0;
};

/// Abstract append/consume log. Appends may come from many threads; records
/// are consumed in append order by a single reader.
class Log : public LogWriter {
public:
  ~Log() override;

  /// Marks the log complete. After close(), next() drains remaining records
  /// and then returns false. Idempotent. Must not race with appends: call
  /// it after the producer threads are done.
  virtual void close() = 0;

  /// Blocks until a record is available or the log is closed and drained.
  /// \returns false on end of log.
  virtual bool next(Action &Out) = 0;

  /// Non-blocking variant: returns false with \p End=false when no record is
  /// ready yet, and false with \p End=true at end of log.
  virtual bool tryNext(Action &Out, bool &End) = 0;

  /// Batch consumption: clears \p Out, blocks until at least one record is
  /// available (or end of log), then moves up to \p Max ready records into
  /// \p Out without further blocking. \returns false (with \p Out empty)
  /// only at end of log. Readers that batch amortize one wakeup and one
  /// lock round trip over the whole batch; the default implementation is
  /// built on next()/tryNext(), backends may override with something
  /// cheaper.
  virtual bool nextBatch(std::vector<Action> &Out, size_t Max);

  /// The append handle the calling thread should use. The default is the
  /// log itself (append is fully thread-safe); sharded backends return a
  /// per-thread handle registered on first use. The returned reference
  /// stays valid until the log is destroyed, but must only be used by the
  /// thread that called writer().
  virtual LogWriter &writer() { return *this; }

  /// Number of records appended so far.
  virtual uint64_t appendCount() const = 0;

  /// Bytes of serialized log produced so far (0 for purely in-memory logs).
  virtual uint64_t byteCount() const { return 0; }

  /// Attaches a telemetry hub: appends count Counter::C_LogAppends (with
  /// sampled Histo::H_AppendNs latencies) and BufferedLog's flusher feeds
  /// the flush-batch/occupancy metrics. Attach before producers start and
  /// keep \p T alive until the log is destroyed; pass nullptr to detach.
  void setTelemetry(Telemetry *T) {
    Telem.store(T, std::memory_order_release);
  }

  /// Admission counters of the backend's bounded stage. All zero for
  /// unbounded configurations (the base default).
  virtual BackpressureStats backpressureStats() const { return {}; }

  /// Subscribes the bounded stage to a dynamic admission policy: every
  /// admission decision reads the current BackpressurePolicy ordinal from
  /// \p Cell instead of the static BackpressureConfig::Policy. The
  /// AdaptiveController owns the cell (its escalation state); it must
  /// outlive the log. Install before producers start; null (the default)
  /// keeps the static policy.
  void setDynamicPolicy(const std::atomic<uint8_t> *Cell) {
    DynPolicy.store(Cell, std::memory_order_release);
  }

  /// Subscribes the backend's drain stage (BufferedLog's flusher emit
  /// quantum) to the adaptive batch target. Backends without a drain
  /// quantum ignore it. Same lifetime rules as setDynamicPolicy.
  void setBatchTargetHint(const std::atomic<size_t> *Cell) {
    BatchHint.store(Cell, std::memory_order_release);
  }

  /// Dynamic-policy nudge: called (from the pump thread) right after the
  /// installed policy cell changed, so producers parked on a
  /// policy-specific wait (BP_Block's space CV) re-evaluate under the new
  /// rung instead of waiting for the next room notification. Default
  /// no-op.
  virtual void onPolicyChange() {}

  /// Installs the observer classifier the BP_Shed policy consults (see
  /// ShedFilter::setClassifier). Must be called before producers start;
  /// without a classifier BP_Shed sheds nothing. No-op on backends
  /// without a bounded stage.
  virtual void setShedClassifier(std::function<bool(const Action &)> Fn) {
    (void)Fn;
  }

  /// Checked-prefix reclamation: every record with Seq < \p Watermark has
  /// been fully checked and will never be read again. Segmented
  /// file-backed logs delete covered segment files; other backends
  /// ignore it. Called from the verification (pump) thread.
  virtual void reclaimCheckedPrefix(uint64_t Watermark) { (void)Watermark; }

  /// Moves segment rotations performed since the last call into \p Out
  /// (appended, oldest first) — the cut points the Verifier snapshots
  /// checker state at (docs/SNAPSHOTS.md). Only segmented file-backed
  /// backends produce cuts; the default leaves \p Out unchanged. Called
  /// from the verification (pump) thread.
  virtual void takeSegmentCuts(std::vector<SegmentCut> &Out) { (void)Out; }

protected:
  /// The attached hub, or null. Hot paths should read it once and cache
  /// the per-thread cell.
  Telemetry *telemetry() const {
    return Telem.load(std::memory_order_acquire);
  }

  /// The admission policy currently in force: the dynamic cell's value
  /// when one is installed, the static configuration otherwise.
  BackpressurePolicy activePolicy(const BackpressureConfig &BP) const {
    const std::atomic<uint8_t> *C = DynPolicy.load(std::memory_order_acquire);
    return C ? static_cast<BackpressurePolicy>(
                   C->load(std::memory_order_relaxed))
             : BP.Policy;
  }

  /// Whether a dynamic policy cell is installed (the policy can change
  /// mid-run; a spill-capable log must then track its delivery frontier
  /// from the start — see BufferedLog::spillCapable).
  bool hasDynamicPolicy() const {
    return DynPolicy.load(std::memory_order_acquire) != nullptr;
  }

  /// The adaptive drain quantum, or \p Default when none is installed.
  size_t batchTargetHint(size_t Default) const {
    const std::atomic<size_t> *C = BatchHint.load(std::memory_order_acquire);
    return C ? C->load(std::memory_order_relaxed) : Default;
  }

private:
  std::atomic<Telemetry *> Telem{nullptr};
  std::atomic<const std::atomic<uint8_t> *> DynPolicy{nullptr};
  std::atomic<const std::atomic<size_t> *> BatchHint{nullptr};
};

/// Streaming reader over a log file produced by BufferedLog:
/// decodes one record at a time out of a bounded read window, so multi-GB
/// logs are processed in O(window) memory. loadLogFile and
/// `vyrd-logdump --stats` are built on it; the window only grows when a
/// single record is larger than it.
///
/// Segment chains (docs/LOGFORMAT.md, v4) are walked transparently: a
/// file carrying a segment header continues into `base.<index+1>` when
/// the current segment is exhausted, and opening a chain's *base* path
/// that does not exist itself falls back to the earliest live segment.
/// Rotation order guarantees a successor's existence proves its
/// predecessor is complete on disk, so leftover undecodable bytes before
/// a successor are real corruption.
///
/// Tailing mode (setTailing) reads a file a writer is still appending
/// to: end-of-file is treated as "no more data *yet*" — next() returns
/// false without latching EOF or flagging a record truncated at the
/// write frontier as malformed, and a later call re-probes the file and
/// the chain. BufferedLog's spill reader runs in this mode.
class LogFileReader {
public:
  explicit LogFileReader(const std::string &Path);
  ~LogFileReader();

  LogFileReader(const LogFileReader &) = delete;
  LogFileReader &operator=(const LogFileReader &) = delete;

  /// False when the file could not be opened or its header is malformed.
  bool valid() const { return File && !Malformed; }
  /// The stream's format version (meaningful while valid()).
  uint32_t version() const { return Version; }
  /// True once undecodable (or mid-record truncated) bytes were hit.
  bool malformed() const { return Malformed; }
  /// Encoded bytes consumed so far (progress reporting on huge logs).
  uint64_t bytesConsumed() const { return Consumed; }
  /// Chain index of the segment currently being read (0 outside chains).
  uint64_t segmentIndex() const { return ChainIndex; }

  /// See the class comment; must be set before the first next() that
  /// could hit end-of-file.
  void setTailing(bool T) { Tailing = T; }

  /// Decodes the next record into \p Out. \returns false at clean end of
  /// file (of the whole chain), on malformed input — distinguish via
  /// malformed() — or, in tailing mode, when no complete record is
  /// available yet.
  bool next(Action &Out);

private:
  void refill();
  bool advanceSegment();

  std::FILE *File = nullptr;
  ActionDecoder Decoder;
  std::vector<uint8_t> Buf; ///< undecoded window is [Start, End)
  size_t Start = 0;
  size_t End = 0;
  uint64_t Consumed = 0;
  uint32_t Version = 1;
  bool Eof = false;
  bool Malformed = false;
  bool Tailing = false;
  /// Non-empty while walking a segment chain: the chain's base path and
  /// the 1-based index of the segment currently open.
  std::string ChainBase;
  uint64_t ChainIndex = 0;
};

/// Decodes all records of a log file previously produced by BufferedLog.
/// \returns false if the file cannot be read or is malformed.
bool loadLogFile(const std::string &Path, std::vector<Action> &Out);

} // namespace vyrd

#endif // VYRD_LOG_H
