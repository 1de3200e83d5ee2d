//===- Checker.h - I/O and view refinement checking -------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RefinementChecker consumes a log (fed one Action at a time, in log order)
/// and checks I/O refinement (Sec. 4) and optionally view refinement
/// (Sec. 5) against a Spec, using a Replayer to reconstruct viewI.
///
/// The witness interleaving is the commit order (Sec. 4.1). Internally the
/// checker keeps an ordered event queue; a mutator commit event *stalls* the
/// queue until the execution's return action (return-value lookahead) and,
/// when the commit sits inside a commit block, the block's end have been
/// fed. Observer call events stall until the observer's return value is
/// known, so every specification state in the observer's window is
/// evaluated against it (Sec. 4.3, Fig. 7). Stalls resolve as later log
/// records arrive; the pipeline therefore works identically online and
/// offline.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_CHECKER_H
#define VYRD_CHECKER_H

#include "vyrd/Action.h"
#include "vyrd/Replayer.h"
#include "vyrd/Ring.h"
#include "vyrd/Spec.h"
#include "vyrd/View.h"
#include "vyrd/Violation.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

namespace vyrd {

class Telemetry;

/// Which refinement check to run.
enum class CheckMode : uint8_t {
  /// Call/return/commit only; no shadow state, no views.
  CM_IORefinement,
  /// I/O refinement plus view comparison at every mutator commit.
  CM_ViewRefinement,
};

/// Tunables for RefinementChecker.
struct CheckerConfig {
  CheckMode Mode = CheckMode::CM_ViewRefinement;
  /// Ablation switch (Sec. 6.4): rebuild both views from scratch at every
  /// commit instead of maintaining them incrementally.
  bool FullViewRecompute = false;
  /// Ablation switch (Sec. 8): compare views (and invariants) only at
  /// quiescent points — commits with no other method execution open —
  /// mimicking commit-atomicity's state comparison. The paper argues such
  /// points are rare in realistic runs and errors get overwritten or
  /// found late; this switch lets the benchmarks quantify that.
  bool QuiescentOnly = false;
  /// Compare the incremental view digests against rebuilt views every N
  /// commits (0 = never). Guards the incremental fast path.
  unsigned AuditPeriod = 0;
  /// Stop recording (and checking views) after the first violation.
  bool StopAtFirstViolation = false;
  /// Upper bound on recorded violations.
  size_t MaxViolations = 64;
  /// Whether executions still open when the log ends are acceptable
  /// (normal when a program is stopped mid-flight).
  bool AllowIncompleteTail = true;
  /// Attach the last N fed log records (rendered) to each violation as
  /// debugging context (0 = off).
  unsigned ContextRecords = 0;
  /// Flight recorder for violation forensics (docs/OBSERVABILITY.md,
  /// "Forensic bundles"): keep the last N fed records and, at every
  /// violation, capture a self-contained JSON bundle — those records,
  /// the open-execution table, and a spec-state digest — retrievable via
  /// forensics(). 0 = off (the default: the window copies every fed Action,
  /// which the zero-allocation hot path should not pay for unasked).
  /// Shares the window with ContextRecords (sized to the larger of the
  /// two).
  unsigned FlightRecorderDepth = 0;
  /// Accumulate the Table 3 per-phase timings (CheckerStats::ReplayNanos
  /// and friends). Off by default: it adds two clock reads around every
  /// replayed write, driven spec transition and view comparison.
  bool CollectTimings = false;
};

/// Counters exposed for the benchmarks.
struct CheckerStats {
  uint64_t ActionsFed = 0;
  /// Method executions fully checked (mutators at commit processing,
  /// observers at window close) — the Table 1 "methods executed" metric.
  uint64_t MethodsChecked = 0;
  uint64_t CommitsProcessed = 0;
  uint64_t ObserversChecked = 0;
  uint64_t ViewComparisons = 0;
  uint64_t Audits = 0;
  /// High-water mark of the internal event queue (how far the pipeline
  /// had to look ahead while stalled on returns/block ends).
  uint64_t MaxQueueDepth = 0;
  /// Table 3 phase breakdown, accumulated only with
  /// CheckerConfig::CollectTimings (all nanoseconds of CLOCK_MONOTONIC):
  /// time replaying implementation updates into viewI (writes, replay ops,
  /// commit-block batches), ...
  uint64_t ReplayNanos = 0;
  /// ... time driving the specification (mutator transitions, observer
  /// return evaluation, diagnosis retries), ...
  uint64_t SpecNanos = 0;
  /// ... and time computing/comparing views plus invariant checks (incl.
  /// audits and full recomputes when those ablations are on).
  uint64_t ViewCompareNanos = 0;
  /// Never written: the observer memo they counted is gone. Kept until
  /// perfbench stops reading them (`checker.obs_memo_hit_ratio`).
  uint64_t ObsMemoHits = 0;
  uint64_t ObsMemoMisses = 0;

  /// Accumulates \p Other into this: counters and timings sum,
  /// MaxQueueDepth takes the maximum. Used by the multi-object Verifier to
  /// aggregate per-object checker stats into the report's totals.
  void merge(const CheckerStats &Other);
};

/// The refinement checking engine. Not thread-safe: exactly one thread
/// (the verification thread) feeds it.
class RefinementChecker {
public:
  /// \p R may be null for CM_IORefinement; it is required for view mode.
  RefinementChecker(Spec &S, Replayer *R, CheckerConfig Config);
  ~RefinementChecker();

  RefinementChecker(const RefinementChecker &) = delete;
  RefinementChecker &operator=(const RefinementChecker &) = delete;

  /// Feeds the next log record (records must arrive in Seq order).
  void feed(const Action &A);

  /// Signals end of log; flushes and (if !AllowIncompleteTail) reports
  /// executions left open.
  void finish();

  bool hasViolation() const { return !Violations.empty(); }
  const std::vector<Violation> &violations() const { return Violations; }
  /// Forensic bundles, parallel to violations(): forensics()[i] is the
  /// flight-recorder JSON captured the instant violations()[i] was
  /// reported (empty string when FlightRecorderDepth is 0). Schema:
  /// docs/OBSERVABILITY.md, "Forensic bundles".
  const std::vector<std::string> &forensics() const {
    return ForensicBundles;
  }
  const CheckerStats &stats() const { return Stats; }

  /// Attaches a telemetry hub: each view comparison's cost is recorded
  /// into Histo::H_ViewCompareNs. Keep \p T alive while the checker runs.
  void setTelemetry(Telemetry *T) { Telem = T; }

  /// Serializes the complete resumable checker state into \p W — the
  /// per-object blob of a LOGFORMAT v5 snapshot sidecar (docs/SNAPSHOTS.md):
  /// spec state, replayer shadow state, open executions, the pending event
  /// queue, and cumulative stats. Only a *clean* checker snapshots:
  /// \returns false when violations have been recorded, after finish(), or
  /// when the Spec/Replayer does not implement state serialization. The
  /// recent-actions context window is intentionally dropped (bounded
  /// diagnostic loss for violations shortly after a restore).
  bool saveState(ByteWriter &W) const;

  /// Restores state written by saveState into this checker, which must be
  /// constructed over the same Spec/Replayer types with an equivalent
  /// CheckerConfig. All current state is replaced; views are rebuilt from
  /// the restored spec/shadow state. \returns false on malformed input or
  /// an unsupported spec/replayer (the checker is then unusable).
  bool restoreState(ByteReader &R);

  /// Locates the core (resumable-state) section inside a saveState blob.
  /// Equivalent checker states serialize to byte-identical cores, while
  /// the stats section legitimately differs between a from-zero and a
  /// resumed run (the phase timings depend on where checking started) —
  /// the epoch baseline audit therefore byte-compares cores only.
  static bool coreSection(const uint8_t *Data, size_t Size, size_t &Off,
                          size_t &Len);

private:
  /// Per-method-execution bookkeeping (Sec. 3.2's executions).
  struct Exec {
    ThreadId Tid = 0;
    Name Method;
    ValueList Args;
    Value Ret;
    uint64_t CallSeq = 0;
    bool IsObserver = false;
    bool HasRet = false;
    bool HasCommit = false;
    bool CommitInBlock = false;
    bool BlockDone = false; // the block containing the commit has ended
    bool InBlock = false;
    bool Satisfied = false; // observer: some window state allowed Ret
    /// Number of executions open at the commit's log position (including
    /// this one); 1 means the commit happened at a quiescent point.
    size_t OpenAtCommit = 0;
    /// Writes of the currently open commit block.
    std::vector<Action> BlockWrites;
    /// Writes of the block that contained the commit action, sealed when
    /// that block ends; applied atomically at the commit event. A method
    /// execution may contain further (commit-free, view-neutral) blocks —
    /// e.g. the B-link tree's separator propagation after a split — whose
    /// writes apply at their own block ends instead.
    std::vector<Action> CommitBlockWrites;
  };
  using ExecPtr = std::shared_ptr<Exec>;

  enum class EventKind : uint8_t {
    EK_Write,    // apply a (non-block) update to the shadow state
    EK_Commit,   // process a mutator commit (may stall)
    EK_ObsBegin, // observer window opens (stalls until Ret known)
    EK_ObsEnd,   // observer window closes: final accept/reject
    EK_MutEnd,   // mutator returned: verify it committed
  };

  struct Event {
    EventKind Kind;
    Action A;
    ExecPtr E;
  };

  void drain();
  /// \returns false when the head event must stall.
  bool processHead();
  void processCommit(Event &Ev);
  /// Sec. 4.1's commit-point diagnosis, run after each commit: a mutator
  /// whose signature had no spec transition at its commit is retried
  /// while its window lasts. If it becomes enabled, the transition is
  /// applied there and its violation is annotated as a likely misplaced
  /// commit annotation; if it never does, as a likely genuine violation.
  void retryFailedMutators(uint64_t Seq);
  /// Re-evaluates still-unsatisfied open observers against the current
  /// spec state (after a commit / recovery may have changed it).
  void evalOpenObservers();
  /// Takes an Exec from the free pool (or allocates one) / returns a
  /// fully retired Exec to it, recycling the control block and the
  /// BlockWrites/CommitBlockWrites buffer capacity.
  ExecPtr acquireExec();
  void recycleExec(ExecPtr E);
  void applyUpdate(const Action &A);
  void compareViews(const Exec &X, uint64_t Seq);
  /// Builds both views, reports \p K with their diff unless they are equal
  /// (\returns whether they are) and re-seeds both digests from them.
  bool rebuildViews(ViolationKind K, uint64_t Seq, ThreadId Tid, Name Method,
                    const char *Prefix);
  void runAudit(uint64_t Seq);
  /// Names the digests in \p OldI / \p OldS that the rebuild corrected.
  std::string describeDrift(const View &OldI, const View &OldS) const;
  void report(ViolationKind K, uint64_t Seq, ThreadId Tid, Name Method,
              std::string Message);
  /// Renders the flight-recorder bundle for \p V (see forensics()).
  std::string captureForensic(const Violation &V) const;
  /// The \p I-th oldest record held in the RecentActions window.
  const Action &recentAction(size_t I) const {
    return RecentActions[(RecentNext + RecentActions.size() - RecentHeld +
                          I) %
                         RecentActions.size()];
  }

  Spec &TheSpec;
  Replayer *TheReplayer;
  CheckerConfig Config;
  CheckerStats Stats;
  Telemetry *Telem = nullptr;

  /// FIFO of pending events. A ChunkQueue (not a deque) so steady-state
  /// push/pop traffic recycles chunk and slot storage instead of churning
  /// deque blocks; drain() resets each popped event's ExecPtr so a
  /// retired slot never pins a pooled Exec.
  ChunkQueue<Event> Events;
  /// Open executions keyed by thread id. Small ids (the common case —
  /// dense ids from currentTid()) live in a direct-indexed vector whose
  /// slot assignments never allocate, unlike unordered_map node churn; a
  /// sparse map catches pathological ids so an adversarial log cannot
  /// force a giant table.
  static constexpr ThreadId DenseTidLimit = 4096;
  std::vector<ExecPtr> OpenExecsDense;
  std::unordered_map<ThreadId, ExecPtr> OpenExecsSparse;
  size_t OpenExecCount = 0;
  ExecPtr *findOpenExec(ThreadId Tid);
  void insertOpenExec(ThreadId Tid, ExecPtr E);
  void eraseOpenExec(ThreadId Tid, ExecPtr *Slot);
  std::vector<ExecPtr> OpenObservers;
  /// Mutators whose commit failed, awaiting diagnosis retries; paired
  /// with the index of their violation record.
  std::vector<std::pair<ExecPtr, size_t>> FailedMutators;
  std::vector<Violation> Violations;
  /// Flight-recorder bundles, parallel to Violations (see forensics()).
  std::vector<std::string> ForensicBundles;
  /// The last max(ContextRecords, FlightRecorderDepth) records fed, for
  /// violation context and forensics: a fixed window overwritten round
  /// robin at RecentNext, so a slot's payload storage is recycled.
  std::vector<Action> RecentActions;
  size_t RecentNext = 0;
  /// Slots holding a record (the window's size until it first wraps).
  size_t RecentHeld = 0;
  View ViewI = View::digestOnly();
  View ViewS = View::digestOnly();
  uint64_t CommitsSinceAudit = 0;
  bool Finished = false;

  /// Retired Execs awaiting reuse (bounded). An entry is reusable once
  /// nothing but the pool references it (use_count == 1).
  std::vector<ExecPtr> ExecPool;
};

} // namespace vyrd

#endif // VYRD_CHECKER_H
