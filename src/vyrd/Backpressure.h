//===- Backpressure.h - Bounded pipeline and segmented log ------*- C++ -*-===//
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
/// BackpressureConfig states one bound, in records, that every stage
/// enforces: a record that meets it waits until the stage's consumer
/// makes room, and the wait propagates back to the producers. No record
/// is dropped, so every appended record is checked. A blocked producer
/// needs a concurrent consumer, hence the bound requires Online mode.
/// Each stage takes a plain record bound; the Verifier turns a disabled
/// config into SIZE_MAX, which no queue meets.
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
#include <mutex>
#include <string>
#include <vector>

namespace vyrd {

/// What a bounded stage does with a record that does not fit: it waits.
/// The only policy; kept as a type because callers name it.
enum class BackpressurePolicy : uint8_t {
  BP_Block, ///< bounded blocking append
};

/// The pipeline-wide bound, enforced uniformly by BufferedLog's merge
/// rounds and the checker pool's pending queues. Part of VerifierConfig;
/// validated there.
struct BackpressureConfig {
  /// Master switch. Disabled (the default), every stage gets a bound of
  /// SIZE_MAX instead of MaxPendingRecords.
  bool Enabled = false;
  /// Ceiling on records pending in any one stage's in-memory queue.
  /// Must be >= 1 when Enabled.
  size_t MaxPendingRecords = 1 << 16;
  /// Always BP_Block, the only policy.
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
  /// Appends that had to wait for space, and the total time they spent
  /// waiting.
  uint64_t BlockedAppends = 0;
  uint64_t BlockedNanos = 0;
  /// High-watermark of the stage's pending queue.
  uint64_t PendingRecordsHwm = 0;
  /// Segment lifecycle (SegmentSink).
  uint64_t SegmentsCreated = 0;
  uint64_t SegmentsReclaimed = 0;
  uint64_t SegmentsLiveHwm = 0;

  /// Sums the counters, maxes the high-watermarks.
  void merge(const BackpressureStats &O);
  /// Any field non-zero (whether the report should render a line).
  bool any() const;
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
/// write()/flushPending() under their own admission lock, and the pump
/// thread calls reclaimThrough() concurrently.
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
  /// assigns Seq, or under BufferedLog's merge mutex).
  void write(const Action &A);

  /// Pushes the pending encoded bytes into stdio (one fwrite). Cheap;
  /// BufferedLog invokes it once per flush epoch. No fflush — durability
  /// only at sync()/close().
  void flushPending();

  /// flushPending + fflush: everything written so far becomes readable
  /// through an independent FILE handle.
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
