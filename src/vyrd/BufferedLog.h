//===- BufferedLog.h - Sharded, batched execution log -----------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution log (Sec. 4.2), built to keep a global mutex off the
/// instrumentation hot path (the dominant runtime cost the paper measures
/// in Table 2). With a file sink it is the paper's "file whose tail is
/// kept in memory"; without one, an in-memory log. Each
/// producer thread appends into its own bounded single-producer /
/// single-consumer ring (ThreadLogShard); a flusher thread drains the
/// shards in epochs and merges the records into the global append order,
/// from which readers consume in batches.
///
/// Ordering contract
/// -----------------
/// The refinement checker needs the log to be a linearization of the
/// instrumented events: if action X became visible before action Y (in
/// particular, if X's commit happened before Y's commit under the data
/// structure's locks), X must precede Y in the log. Epoch flushing alone
/// cannot provide this — two shards flushed in either order would reorder
/// causally related commits — so the global order is fixed at append time
/// by a single atomic ticket counter:
///
///  * append claims `Ticket.fetch_add(1, relaxed)` and stamps it into
///    Action::Seq. Per-object coherence guarantees that if append X
///    happens-before append Y (same thread, or across threads via the
///    lock the paper's atomicity rule already requires the hook to hold),
///    X's increment precedes Y's in the counter's modification order, so
///    ticket(X) < ticket(Y). No stronger ordering is needed from the RMW
///    itself; `relaxed` suffices.
///  * the record is published to the shard with a release store of the
///    ring head; the flusher reads the head with acquire, so the record
///    contents are visible when it drains.
///  * tickets are dense, so the flusher can (and must) emit records in
///    exactly ticket order: it holds records back until the contiguous
///    prefix is complete, then stamps them into the global order as the
///    final, dense sequence numbers. A record's sequence number therefore
///    *is* its ticket; it becomes observable to readers only at flush.
///    Density also makes reordering O(1) per record: the flusher parks
///    each drained record in a ring indexed by `Seq & Mask` (growing the
///    ring if a stalled producer ever leaves a wider gap) and emits the
///    contiguous run starting at the next expected ticket — no
///    comparisons, no heap.
///
/// Backpressure: shards are bounded. A producer whose ring is full waits
/// (spin, then yield, then short sleeps) until the flusher makes room, so
/// memory for unflushed records is capped at ShardCapacity per thread.
///
/// Thread registration: shards are keyed by the dense thread id
/// (currentTid()) and created the first time a thread with that id calls
/// writer() (or append). Shards are owned by the log and outlive their
/// threads. Thread ids are recycled when a thread exits, so a shard can
/// pass to a later thread; the exiting thread's appends happen-before the
/// id's reuse, so a shard never has two producers at once, and
/// shardCount() is at most the number of producer threads. close() must
/// only be called after all producer threads are done appending.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_BUFFEREDLOG_H
#define VYRD_BUFFEREDLOG_H

#include "vyrd/Log.h"

#include <atomic>
#include <memory>
#include <thread>

namespace vyrd {

class BufferedLog;
class TelemetryCell;

/// One thread's bounded SPSC ring. Producer: the owning thread, through
/// LogWriter::append. Consumer: the parent log's flusher thread.
class ThreadLogShard final : public LogWriter {
public:
  ThreadLogShard(BufferedLog &Parent, size_t Capacity);

  /// Producer side: claims a ticket, stamps it as the sequence number and
  /// publishes the record to the ring, waiting for space if the ring is
  /// full. Must only be called by the owning thread.
  uint64_t append(Action A) override;

private:
  friend class BufferedLog;

  /// Consumer side (flusher only): moves all published records out into
  /// the parent's reorder ring. \returns how many were moved.
  size_t drain();

  BufferedLog &Parent;
  std::vector<Action> Slots;
  const uint64_t Mask;
  /// Monotonic positions; slot = position & Mask. Head is written by the
  /// producer (release) and read by the flusher (acquire); Tail is the
  /// reverse. CachedTail lets the producer check for space without
  /// touching the shared Tail in the common case.
  alignas(64) std::atomic<uint64_t> Head{0};
  alignas(64) std::atomic<uint64_t> Tail{0};
  uint64_t CachedTail = 0;
  /// The owning thread's telemetry cell, resolved lazily on first append
  /// after a hub is attached (Log::setTelemetry). Producer-side only.
  TelemetryCell *TC = nullptr;
};

/// The sharded, batched log. See the file comment for the ordering and
/// registration contract.
class BufferedLog final : public Log {
public:
  struct Options {
    /// Ring capacity per producer thread, in records; rounded up to a
    /// power of two. Bounds the memory held in unflushed shards and the
    /// distance a producer can run ahead of the flusher.
    size_t ShardCapacity = 1024;
    /// When non-empty, the flusher serializes every flushed batch to this
    /// file (docs/LOGFORMAT.md; readable with loadLogFile). With
    /// Backpressure.SegmentBytes > 0 the output rotates into a segment
    /// chain instead of one file.
    std::string FilePath;
    /// Keep flushed records in memory for next()/tryNext()/nextBatch().
    /// Disable for logging-only runs where nothing consumes the log; the
    /// reader then reports end of log only after close().
    bool RetainRecords = true;
    /// Bound + policy for the merged reader queue. The shard rings are
    /// already bounded (ShardCapacity per thread); this bounds the
    /// downstream stage the flusher feeds. BP_Block parks the *flusher*
    /// (shards then fill and producers hit the ring-full backoff, so the
    /// pressure propagates); BP_SpillToDisk needs FilePath and lets the
    /// reader re-read over-limit records from disk; BP_Shed drops
    /// observer executions from the queue only (the file, when present,
    /// stays complete).
    BackpressureConfig Backpressure;
  };

  BufferedLog();
  explicit BufferedLog(Options O);
  ~BufferedLog() override;

  /// False iff Options::FilePath was set and the file could not be opened.
  bool valid() const { return Valid; }

  /// Thread-safe append from any thread: resolves the caller's shard and
  /// appends through it. Hot paths should cache writer() instead.
  uint64_t append(Action A) override;

  /// The calling thread's shard, registered on first use.
  LogWriter &writer() override;

  void close() override;
  bool next(Action &Out) override;
  bool tryNext(Action &Out, bool &End) override;
  bool nextBatch(std::vector<Action> &Out, size_t Max) override;
  uint64_t appendCount() const override;
  uint64_t byteCount() const override;
  BackpressureStats backpressureStats() const override;
  void setShedClassifier(std::function<bool(const Action &)> Fn) override;
  void reclaimCheckedPrefix(uint64_t Watermark) override;
  void takeSegmentCuts(std::vector<SegmentCut> &Out) override;
  void onPolicyChange() override;

  /// Number of shards registered so far: at most the number of producer
  /// threads, fewer when a thread reused an exited thread's id.
  size_t shardCount() const;

private:
  friend class ThreadLogShard;

  ThreadLogShard &shardForCurrentThread();
  void flusherMain();
  /// True when the reader must track the delivery frontier and be able to
  /// re-read over-limit records from the file: the static policy is
  /// BP_SpillToDisk, or a dynamic-policy cell is installed and could
  /// escalate into it mid-run (frontier bookkeeping must be on from the
  /// first record, or an escalation would re-deliver the whole file).
  bool spillCapable() const;
  /// Pushes one emit round's records [\p First, \p S) into the reader
  /// queue under the configured admission policy.
  void enqueueEmitted(uint64_t First, uint64_t S);
  bool readyLocked() const;
  bool tryNextLocked(Action &Out, bool &End);
  bool spillNextLocked(Action &Out);
  void popFrontLocked(Action &Out);
  /// Drains every shard into the reorder ring. \returns records drained.
  size_t drainShards();
  /// Parks one drained record in the reorder ring at `Seq & Mask`,
  /// growing the ring when a stalled producer has left a gap wider than
  /// its current capacity. Flusher thread only.
  void park(Action &&A);
  /// Emits the contiguous ticket run starting at the next expected
  /// sequence number into the global order (file and/or reader queue).
  /// \returns records emitted.
  size_t emitReady();

  struct Impl;
  std::unique_ptr<Impl> I;
  bool Valid = true;
};

} // namespace vyrd

#endif // VYRD_BUFFEREDLOG_H
