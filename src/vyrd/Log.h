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
#include "vyrd/Serialize.h"

#include <atomic>
#include <cstdio>
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
  /// \p Out without further blocking; \p Max == 0 is treated as 1.
  /// \returns false (with \p Out empty) only at end of log. Readers that
  /// batch amortize one wakeup and one lock round trip over the whole
  /// batch; the default implementation is built on next()/tryNext(),
  /// backends may override with something cheaper.
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

  /// Attaches a telemetry hub: appends sample Histo::H_AppendNs
  /// latencies (the append count itself is appendCount(), which the
  /// hub pulls) and BufferedLog's merge rounds
  /// feed the flush-batch/occupancy metrics. Attach before producers start
  /// and keep \p T alive until the log is destroyed; pass nullptr to
  /// detach.
  void setTelemetry(Telemetry *T) {
    Telem.store(T, std::memory_order_release);
  }

protected:
  /// The attached hub, or null. Hot paths should read it once and cache
  /// the per-thread cell.
  Telemetry *telemetry() const {
    return Telem.load(std::memory_order_acquire);
  }

private:
  std::atomic<Telemetry *> Telem{nullptr};
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

  /// Decodes the next record into \p Out. \returns false at clean end of
  /// file (of the whole chain) or on malformed input — distinguish via
  /// malformed().
  bool next(Action &Out);

private:
  /// Tops up the read window. \returns the bytes read (0 at end of file).
  size_t refill();
  bool advanceSegment();

  std::FILE *File = nullptr;
  ActionDecoder Decoder;
  std::vector<uint8_t> Buf; ///< undecoded window is [Start, End)
  size_t Start = 0;
  size_t End = 0;
  uint64_t Consumed = 0;
  uint32_t Version = 1;
  bool Malformed = false;
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
