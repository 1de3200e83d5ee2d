//===- Backpressure.h - Bounded-pipeline admission policies -----*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded-channel layer of the pipeline. The paper's log (Sec. 4.2)
/// decouples instrumented threads from the verification thread; without a
/// bound, every link of that chain (BufferedLog's reader queue, the
/// checker pool's pending queues) grows whenever checkers lag producers.
/// BackpressureConfig states the memory ceiling and the admission policy
/// every stage enforces when it is reached:
///
///  * BP_Block       — bounded blocking append: the producer waits for the
///                     reader to make room. Safe default; requires a
///                     concurrent consumer (Online mode).
///  * BP_SpillToDisk — overflow is demoted to the log file: records keep
///                     flowing to disk, the in-memory queue stops growing,
///                     and the reader re-reads the spilled region through
///                     LogFileReader when it catches up. Producers never
///                     block. Requires a file-backed log.
///  * BP_Shed        — observer-only executions are dropped, with exact
///                     accounting (BackpressureStats::ShedRecords, surfaced
///                     as a VK_Degraded note in the report). Mutator,
///                     commit and write records are never dropped, so
///                     verdicts on the records that are checked stay sound;
///                     coverage, not correctness, degrades.
///
/// SegmentSink implements the disk half of the ceiling: instead of one
/// file that accretes forever, output rotates into numbered segment files
/// (`path.000001`, ...) of ~SegmentBytes each, and segments whose last
/// record every registered object's checker has passed are deleted
/// (checked-prefix reclamation), so a soak run holds O(segment) disk.
/// See docs/ARCHITECTURE.md, "Bounded pipeline & backpressure".
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_BACKPRESSURE_H
#define VYRD_BACKPRESSURE_H

#include "vyrd/Action.h"
#include "vyrd/Serialize.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace vyrd {

/// What a bounded stage does with a record that does not fit.
enum class BackpressurePolicy : uint8_t {
  BP_Block,       ///< bounded blocking append (safe default)
  BP_SpillToDisk, ///< demote overflow to the log file, re-read on catch-up
  BP_Shed,        ///< drop observer-only executions, with accounting
};

/// Short printable name ("block", "spill", "shed").
const char *backpressurePolicyName(BackpressurePolicy P);

/// The pipeline-wide bound and admission policy, enforced uniformly by
/// BufferedLog's flusher and the checker pool's pending queues. Part of
/// VerifierConfig; validated there.
struct BackpressureConfig {
  /// Master switch. Disabled (the default) keeps the historical
  /// unbounded behavior of every stage.
  bool Enabled = false;
  /// Ceiling on records pending in any one stage's in-memory queue.
  /// Must be >= 1 when Enabled.
  size_t MaxPendingRecords = 1 << 16;
  /// Optional ceiling on the estimated bytes those pending records pin
  /// (actionFootprintBytes). 0 = no byte bound. Whichever of the two
  /// ceilings is hit first triggers the policy.
  size_t MaxTailBytes = 0;
  BackpressurePolicy Policy = BackpressurePolicy::BP_Block;
  /// When > 0, file-backed logs rotate into numbered segment files of
  /// roughly this many bytes (see SegmentSink). 0 = one plain log file,
  /// exactly as before.
  uint64_t SegmentBytes = 0;
  /// Delete segments once fully checked (only meaningful with
  /// SegmentBytes > 0). Disable to keep the complete rotated chain on
  /// disk for post-mortem re-checking.
  bool ReclaimSegments = true;
};

/// Counters a bounded stage keeps about its admission decisions. Exact:
/// updated under the stage's own lock, independent of telemetry.
struct BackpressureStats {
  /// Appends that had to wait for space (BP_Block), and the total time
  /// they spent waiting.
  uint64_t BlockedAppends = 0;
  uint64_t BlockedNanos = 0;
  /// Records dropped by BP_Shed (whole observer executions).
  uint64_t ShedRecords = 0;
  /// Records that bypassed the in-memory queue and were re-read from
  /// disk (BP_SpillToDisk).
  uint64_t SpilledRecords = 0;
  /// High-watermarks of the stage's pending queue.
  uint64_t PendingRecordsHwm = 0;
  uint64_t TailBytesHwm = 0;
  /// Segment lifecycle (SegmentSink).
  uint64_t SegmentsCreated = 0;
  uint64_t SegmentsReclaimed = 0;
  uint64_t SegmentsLiveHwm = 0;

  /// Sums the counters, maxes the high-watermarks.
  void merge(const BackpressureStats &O);
  /// Any field non-zero (whether the report should render a line).
  bool any() const;
};

/// Rough bytes one pending Action pins: the record itself plus heap
/// payloads (spilled argument lists, string/bytes values). Used for the
/// MaxTailBytes ceiling and the G_TailBytes gauge; an estimate — small
/// allocator overhead is not modeled.
size_t actionFootprintBytes(const Action &A);

/// The BP_Shed decision procedure. Sheds *whole observer executions*:
/// when the queue is over its limit and an AK_Call starts an execution
/// the classifier marks observer-only, the call and everything the same
/// (object, thread) emits up to and including the matching AK_Return are
/// dropped together — a return whose call was admitted is never dropped,
/// and no execution is ever delivered half. Not thread-safe; each stage
/// owns one instance and calls it under its admission lock, in admission
/// order.
class ShedFilter {
public:
  /// \p Fn returns true when \p A (an AK_Call) starts an observer-only
  /// execution — one that emits no commit/write/replay records, so
  /// dropping it wholesale cannot perturb the shadow state or any other
  /// execution's verdict. Installed by the Verifier at start() (the
  /// classifier consults the registered Spec::isObserver).
  void setClassifier(std::function<bool(const Action &)> Fn) {
    Classifier = std::move(Fn);
  }
  bool hasClassifier() const { return static_cast<bool>(Classifier); }

  /// Decides \p A's fate. \p OverLimit: is the stage's queue at/over its
  /// ceiling right now. \returns true when \p A must be dropped.
  bool shouldShed(const Action &A, bool OverLimit);

private:
  std::function<bool(const Action &)> Classifier;
  /// Open shed windows, keyed ObjectId << 32 | Tid: executions whose
  /// call was dropped and whose return has not arrived yet.
  std::unordered_set<uint64_t> OpenWindows;
};

/// One segment rotation, as observed by the snapshot machinery: the chain
/// grew a new segment \p Index whose first record is \p FirstSeq, i.e.
/// every record with Seq < FirstSeq lives in segments before \p Index.
/// The Verifier snapshots checker state at these cut points and writes
/// the blobs as the new segment's sidecar (docs/SNAPSHOTS.md).
struct SegmentCut {
  uint64_t Index = 0;    ///< 1-based index of the newly opened segment
  uint64_t FirstSeq = 0; ///< sequence number of its first record
};

/// The disk side of a file-backed log: owns the output file(s), the
/// record encoder and the rotation/reclamation bookkeeping. Two modes:
///
///  * SegmentBytes == 0 — one plain file at `path`, v3 header written at
///    open(): the byte stream of the single-file log format (v3).
///  * SegmentBytes > 0  — a chain of numbered segments `path.000001`,
///    `path.000002`, ... Each segment is fully self-contained: its own
///    header (LogSegmentVersion, carrying the segment index and first
///    sequence number) and its own name-interning table, so any segment
///    can be decoded — and any prefix of the chain deleted — without the
///    others. Rotation happens at record boundaries once a segment
///    reaches SegmentBytes; the previous segment is flushed and closed
///    before its successor is created (readers rely on that order).
///
/// All methods are thread-safe (one internal mutex): writers call
/// write()/flushPending() under their own admission lock, the pump
/// thread calls reclaimThrough(), and spill readers call sync() /
/// pathForSeq() concurrently.
class SegmentSink {
public:
  SegmentSink() = default;
  ~SegmentSink();

  SegmentSink(const SegmentSink &) = delete;
  SegmentSink &operator=(const SegmentSink &) = delete;

  /// Opens the sink (creates the plain file or the first segment).
  /// \returns false when the file cannot be created.
  bool open(const std::string &Path, uint64_t SegmentBytes);
  bool valid() const;

  /// Encodes \p A into the pending buffer, rotating to a fresh segment
  /// first when the current one is full. Records must arrive in
  /// ascending Seq order (they do: callers encode under the lock that
  /// assigns Seq, or on the single flusher thread).
  void write(const Action &A);

  /// Pushes the pending encoded bytes into stdio (one fwrite). Cheap;
  /// BufferedLog invokes it once per flush epoch. No fflush — durability
  /// only at sync()/close().
  void flushPending();

  /// flushPending + fflush: everything written so far becomes readable
  /// through an independent FILE handle (spill readers call this before
  /// crossing the last synced boundary).
  void sync();

  /// Final sync and fclose. Idempotent; the destructor calls it.
  void close();

  /// Total encoded bytes produced across all segments (monotonic; not
  /// reduced by reclamation).
  uint64_t bytesWritten() const;

  /// Deletes closed segments whose every record is below \p Watermark
  /// (exclusive): the checked prefix. The active segment is never
  /// deleted. No-op in plain-file mode.
  void reclaimThrough(uint64_t Watermark);

  /// Segments currently on disk (1 in plain-file mode).
  size_t liveSegments() const;

  /// The file to start reading from to reach sequence number \p Seq: the
  /// newest live segment whose first record is <= Seq (the plain path in
  /// plain-file mode). Spill readers open a LogFileReader here and walk
  /// the chain forward.
  std::string pathForSeq(uint64_t Seq) const;

  /// Segment lifecycle counters (created/reclaimed/live HWM only; the
  /// owning log merges them into its own stats).
  BackpressureStats stats() const;

  /// Moves the rotations performed since the last call into \p Out
  /// (appended, oldest first). The Verifier's pump polls this to learn
  /// where snapshot cut points fall. Always empty in plain-file mode.
  void drainCuts(std::vector<SegmentCut> &Out);

private:
  struct Segment {
    uint64_t Index = 0;    ///< 1-based chain position
    uint64_t FirstSeq = 0; ///< valid once the segment has a record
    uint64_t LastSeq = 0;  ///< valid while Records > 0
    uint64_t Records = 0;
    bool Closed = false; ///< rotation finished; LastSeq is final
  };

  bool openSegmentLocked(uint64_t FirstSeq);
  void rotateLocked(uint64_t NextFirstSeq);
  void flushPendingLocked();
  std::string segmentPathLocked(uint64_t Index) const;

  mutable std::mutex M;
  std::string Path;
  uint64_t SegmentBytes = 0; ///< 0 = plain single file
  std::FILE *File = nullptr;
  bool Opened = false;
  bool ClosedDown = false;
  ActionEncoder Encoder;
  ByteWriter Pending;
  uint64_t TotalBytes = 0;
  uint64_t CurSegmentBytes = 0;
  /// Live (not yet reclaimed) segments, oldest first; back() is active.
  std::vector<Segment> Segments;
  /// Rotations not yet drained by drainCuts (oldest first).
  std::vector<SegmentCut> Cuts;
  uint64_t NextIndex = 1;
  uint64_t SegmentsCreated = 0;
  uint64_t SegmentsReclaimed = 0;
  uint64_t SegmentsLiveHwm = 0;
};

/// Renders the path of segment \p Index of chain base \p Base
/// ("base.000001" style). Shared by SegmentSink and LogFileReader.
std::string logSegmentPath(const std::string &Base, uint64_t Index);

/// Recognizes a segment path: when \p Path ends in ".NNNNNN" (six
/// digits), strips it into \p Base / \p Index and returns true.
bool splitLogSegmentPath(const std::string &Path, std::string &Base,
                         uint64_t &Index);

} // namespace vyrd

#endif // VYRD_BACKPRESSURE_H
