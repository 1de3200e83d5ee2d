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
/// single-consumer ring (ThreadLogShard); merge rounds drain the shards
/// and merge the records into the global append order, from which readers
/// consume in batches.
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
///    ring head (seq_cst in the fallback below); the merger reads the
///    head with acquire, so the record contents are visible when it
///    drains. The release store is the commit of the publish (the
///    release/acquire reading of Dalvandi & Dongol, "Verifying C11-Style
///    Weak Memory Libraries via Refinement"): a merger whose acquire
///    load reads it sees the whole record.
///  * tickets are dense, so a merge round can (and must) emit records in
///    exactly ticket order: it holds records back until the contiguous
///    prefix is complete, then stamps them into the global order as the
///    final, dense sequence numbers. A record's sequence number therefore
///    *is* its ticket; it becomes observable to readers only at flush.
///    Density also makes reordering O(1) per record: the merger parks
///    each drained record in a ring indexed by `Seq & Mask` (growing the
///    ring if a stalled producer ever leaves a wider gap) and emits the
///    contiguous run starting at the next expected ticket — no
///    comparisons, no heap.
///
/// Who merges, who sleeps
/// ----------------------
/// A merge round (mergeRound) runs under the merge mutex: it drains the
/// shards into the reorder ring, parks each record at its ticket, and
/// emits the contiguous ticket run to the file sink and to the reader
/// queue's admission. Two kinds of thread run rounds:
///
///  * the reader. Every reader entry point (nextBatch, tryNextBatch, next,
///    tryNext) runs a round itself when its queue has nothing for it, so a
///    record reaches the checker on the thread that checks it. A round run
///    by a batch reader that finds the queue empty (under the queue
///    mutex) hands the admitted run straight to the caller's batch, at
///    most the batch's room, after writing it to the file sink; those
///    records never enter the queue. Other reader rounds emit into the
///    queue, at most its free room. Either way a reader-side round admits
///    at most the queue bound, so it never has to wait on its own queue;
///    what does not fit stays parked for the next round. When a round finds
///    nothing, the reader spins briefly on the shard heads, then parks on
///    an eventcount until a producer publishes.
///  * the flusher thread, for the logs nobody reads online: log-only and
///    offline runs, and a reader busy or blocked downstream (checker-pool
///    admission). It sleeps on its own eventcount until close(), or until
///    a producer's ring passes half full. Awake, it runs rounds until one
///    finds nothing. At the queue bound it waits for room between
///    rounds, never inside one, so the merge mutex is never held across a
///    wait.
///
/// The reader queue is the flusher's overflow: it holds only what flusher
/// rounds (and next/tryNext rounds) emitted while the reader was away.
/// nextBatch takes queued records first, in one pass per batch, and takes
/// a direct run only when the queue is empty, so ticket order holds
/// across the two paths.
///
/// The lost-wake-up argument. The producer's publish is on the hot path
/// and the sleeper's park is not, so the full barrier the two sides need
/// is paid by the sleeper (the asymmetric-fence pattern):
///
///  * producer: stores Head with release, then a compiler barrier, then
///    loads the reader's sleeper flag, and the flusher's when its ring
///    passes half full. The compiler barrier keeps the store before the
///    loads in the instruction stream; nothing orders them on the CPU
///    (a store buffer may hold the store past the loads).
///  * sleeper: loads its epoch, stores its flag (seq_cst), issues
///    membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED), then rechecks for
///    work: it loads every shard's Head and parks only if no shard holds
///    a record (the reader) or half a ring (the flusher); the reader
///    also looks at its queue under the queue mutex, the flusher at
///    Closed.
///
/// membarrier returns only after every thread of the process has run a
/// full barrier at some instruction boundary between the call's start
/// and its return: a running thread in the IPI the call sends it, a
/// descheduled one in the context switch that took it off its CPU (and
/// a thread scheduled in meanwhile starts after the sleeper's flag store
/// is visible). So the producer's barrier point falls either after its
/// Head store, and then the store is visible before membarrier returns
/// and the sleeper's recheck sees the record; or before the store, and
/// then its flag load comes after the barrier, which comes after the
/// sleeper's flag store, and it sees the flag and wakes the sleeper.
/// Either way the record is not stranded under a sleeping reader.
///
/// Fallback: TSan cannot model membarrier, and registration
/// (MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, once per process) fails
/// on old kernels and under some seccomp filters. Then producers publish
/// Head with a seq_cst store (asymmetricPublish() is false), sleepers
/// skip the barrier, and the argument is the seq_cst one: the producer's
/// Head store and flag load and the sleeper's flag store and Head load
/// are all in the single total order S of seq_cst operations, so either
/// the sleeper's Head load follows the producer's Head store in S, or
/// the sleeper's flag store precedes the producer's flag load.
///
/// A waker wakes only after clearing the flag with an exchange, so each
/// sleep costs one notify, not one per publish. The epoch was loaded
/// before the flag was stored and the waker bumps it after reading that
/// store, so the bump is never the value the sleeper waits against:
/// atomic<uint32_t>::wait returns. Shards registered after the recheck's
/// list load are covered the same way (the registration store is seq_cst
/// and precedes the new shard's first publish in its producer's program
/// order); close() stores Closed (seq_cst) before it loads the flusher's
/// flag. Records a merge round moves to the queue are covered by the
/// queue mutex: every flusher round that emits ends with a wake-up check,
/// and a reader whose recheck took the mutex before the round's push had
/// stored its flag before that check. A producer that finds its ring full
/// wakes the flusher on every backoff round, so no ring stays full
/// unmerged whatever the half-full check saw.
///
/// Since every park makes each running thread of the process take a
/// barrier, the reader spins briefly (a bounded run of `pause`s,
/// rechecking the shard heads with acquire loads) before it parks; a
/// record that arrives meanwhile sends it back to its loop for another
/// round instead. The reader_parks / reader_wakes telemetry counters
/// count the cycles that remain.
///
/// Backpressure: shards are bounded. A producer whose ring is full wakes
/// the flusher and waits (yield, then short sleeps) until a merge round
/// makes room, so memory for unmerged records is capped at ShardCapacity
/// per thread. So is the reader queue, by Options::MaxPendingRecords: a
/// merge round emits no record past that many queued ones, so the rest
/// waits parked in the reorder ring and then in the shards, and the
/// producers wait with it. The default bound, SIZE_MAX, is never met.
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

#include "vyrd/Backpressure.h"
#include "vyrd/Log.h"

#include <atomic>
#include <memory>
#include <thread>

namespace vyrd {

class BufferedLog;
class TelemetryCell;

/// One thread's bounded SPSC ring. Producer: the owning thread, through
/// LogWriter::append. Consumer: whichever thread runs the parent log's
/// merge round (one at a time, under its merge mutex).
class ThreadLogShard final : public LogWriter {
public:
  ThreadLogShard(BufferedLog &Parent, size_t Capacity);

  /// Producer side: claims a ticket, stamps it as the sequence number and
  /// publishes the record to the ring, waiting for space if the ring is
  /// full. Must only be called by the owning thread.
  uint64_t append(Action A) override;

private:
  friend class BufferedLog;

  /// Consumer side (merge round only): moves all published records out
  /// into the parent's reorder ring. \returns how many were moved.
  size_t drain();

  BufferedLog &Parent;
  std::vector<Action> Slots;
  const uint64_t Mask;
  /// The next older registered shard; fixed before this one is published
  /// to BufferedLog's shard list.
  ThreadLogShard *NextShard = nullptr;
  /// Monotonic positions; slot = position & Mask. Head is written by the
  /// producer (a release store, or seq_cst in the fallback; see the file
  /// comment) and read by the merger (acquire); Tail is the reverse.
  /// CachedTail lets the producer check for space without touching the
  /// shared Tail in the common case.
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
    /// distance a producer can run ahead of the merge rounds.
    size_t ShardCapacity = 1024;
    /// When non-empty, merge rounds serialize every emitted run to this
    /// file (docs/LOGFORMAT.md; readable with loadLogFile). With
    /// SegmentBytes > 0 the output rotates into a segment chain instead
    /// of one file.
    std::string FilePath;
    /// BackpressureConfig's segment rotation and reclamation settings.
    uint64_t SegmentBytes = 0;
    bool ReclaimSegments = true;
    /// Keep flushed records in memory for next()/tryNext()/nextBatch().
    /// Disable for logging-only runs where nothing consumes the log; the
    /// reader then reports end of log only after close().
    bool RetainRecords = true;
    /// Bound on the merged reader queue, in records (>= 1). A round stops
    /// at it and parks the *flusher* until the reader makes room (shards
    /// then fill and producers hit the ring-full backoff, so the pressure
    /// propagates). SIZE_MAX, the default, is no bound.
    size_t MaxPendingRecords = SIZE_MAX;
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
  /// nextBatch without the wait: takes what is queued, or what one merge
  /// round finds. \returns false when nothing was ready, with \p End set
  /// once the log is closed and fully read.
  bool tryNextBatch(std::vector<Action> &Out, size_t Max, bool &End);
  uint64_t appendCount() const override;
  uint64_t byteCount() const override;

  /// Admission counters of the reader queue (waits at the bound, the
  /// queue's high-water mark), merged with the segment sink's counters.
  BackpressureStats backpressureStats() const;

  /// Checked-prefix reclamation: every record with Seq < \p Watermark has
  /// been fully checked and will never be read again. A segmented
  /// file-backed log deletes covered segment files; otherwise a no-op.
  /// Called from the verification (pump) thread.
  void reclaimCheckedPrefix(uint64_t Watermark);

  /// Moves segment rotations performed since the last call into \p Out
  /// (appended, oldest first) — the cut points the Verifier snapshots
  /// checker state at (docs/SNAPSHOTS.md). Only a segmented file-backed
  /// log produces cuts. Called from the verification (pump) thread.
  void takeSegmentCuts(std::vector<SegmentCut> &Out);

  /// Number of shards registered so far: at most the number of producer
  /// threads, fewer when a thread reused an exited thread's id.
  size_t shardCount() const;

  /// True when appends publish with a release store and sleepers pay the
  /// barrier with membarrier; false when they fall back to the seq_cst
  /// publish (under TSan, or where membarrier registration failed). See
  /// "Who merges, who sleeps" in the file comment.
  static bool asymmetricPublish();

private:
  friend class ThreadLogShard;

  /// What one merge round did.
  struct MergeResult {
    size_t Drained = 0; ///< records moved out of the shards
    size_t Emitted = 0; ///< records emitted into the global order
    /// The queue bound stopped the run (flusher rounds only).
    bool Blocked = false;
    /// Every ticket issued so far is in the global order.
    bool CaughtUp = false;
  };

  ThreadLogShard &shardForCurrentThread();
  void flusherMain();
  /// One merge round under the merge mutex (file comment, "Who merges,
  /// who sleeps"). \p Reader marks a reader-side round, which emits at
  /// most the queue's free room. Given \p Out, a round that finds the
  /// queue empty appends at most \p Max admitted records to \p Out
  /// instead of queueing them.
  MergeResult mergeRound(bool Reader, std::vector<Action> *Out = nullptr,
                         size_t Max = 0);
  /// Drains every shard into the reorder ring. \returns records drained.
  size_t drainShards();
  /// Parks one drained record in the reorder ring at `Seq & Mask`,
  /// growing the ring when a stalled producer has left a gap wider than
  /// its current capacity.
  void park(Action &&A);
  /// Emits the contiguous ticket run starting at the next expected
  /// sequence number into the global order (file, and the reader queue
  /// or \p Out as mergeRound says). \returns records emitted.
  size_t emitReady(bool Reader, bool &Blocked, std::vector<Action> *Out,
                   size_t Max);
  /// Decides queue admission for the run [\p First, \p S) in ticket
  /// order. \returns the end of the admitted prefix: \p S, or the first
  /// record that met a full queue and has to wait (then a flusher round
  /// sets \p Blocked and waits for room before its next round). A wait counts once in BlockedAppends; its length
  /// goes to BlockedNanos when the record is admitted.
  uint64_t admitLocked(uint64_t First, uint64_t S, bool Reader,
                       bool &Blocked);
  /// Pushes the records of [\p First, \p S) into the reader queue.
  void publishLocked(uint64_t First, uint64_t S);
  /// Reader whose own round found nothing: spins briefly, then parks
  /// until a producer or a merge round wakes it.
  void awaitRecords();
  /// True when some shard holds at least \p N published records not yet
  /// drained. The sleepers' recheck loads every Head with seq_cst (the
  /// fallback protocol needs it); the reader's spin uses acquire.
  bool shardsHold(uint64_t N,
                  std::memory_order MO = std::memory_order_seq_cst) const;
  /// Accounts for \p N records leaving the queue: the gauge, and a
  /// wake-up for a flusher waiting for room.
  void dequeuedLocked(size_t N);

  struct Impl;
  std::unique_ptr<Impl> I;
  bool Valid = true;
};

} // namespace vyrd

#endif // VYRD_BUFFEREDLOG_H
