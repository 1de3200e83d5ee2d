//===- Epoch.cpp - Epoch-parallel offline verification --------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Epoch.h"

#include "vyrd/Snapshot.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace vyrd;

namespace {

/// One snapshot-delimited slice of the chain.
struct EpochSlice {
  size_t SegPos = 0;                  ///< first segment (index into Segs)
  const SnapshotFile *Snap = nullptr; ///< baseline; null = from zero
  uint64_t StartSeq = 0;
  uint64_t EndSeq = UINT64_MAX; ///< exclusive; UINT64_MAX for the last epoch
};

/// Outcome of one slice: one CheckerService over every object.
struct SliceResult {
  /// The factory does not know an object id (the whole check fails).
  std::string Error;
  /// Per-object reports, Objects[O] for object O, from buildReport.
  VerifierReport Report;
  /// Per object: the end state did not match the next sidecar's
  /// baseline (or could not be serialized for the audit). Conservative:
  /// forces the serial re-check, exactly like a violation.
  std::vector<bool> Mismatch;
  /// The sidecar blobs failed to restore into fresh pipelines
  /// (RestoreError says why); nothing was fed.
  bool RestoreFailed = false;
  std::string RestoreError;
  /// Unreadable or malformed slice: reported once, and counts as a
  /// violation of every object.
  std::vector<Violation> Failures;
  uint64_t Unrouted = 0;
  uint64_t FirstUnroutedSeq = 0;
  uint64_t SeqHwm = 0; ///< highest Seq seen + 1 (log size estimate)

  bool bad(size_t O) const {
    return RestoreFailed || !Failures.empty() || Mismatch[O] ||
           !Report.Objects[O].Violations.empty();
  }
};

/// True when two checker blobs carry the same core. Stats sections
/// legitimately differ — the phase timings depend on where the checker
/// started — which is why only the cores are compared.
bool sameCore(const SnapshotObject *A, const SnapshotObject *B) {
  size_t AOff = 0, ALen = 0, BOff = 0, BLen = 0;
  return A && B &&
         RefinementChecker::coreSection(A->Blob.data(), A->Blob.size(), AOff,
                                        ALen) &&
         RefinementChecker::coreSection(B->Blob.data(), B->Blob.size(), BOff,
                                        BLen) &&
         ALen == BLen &&
         std::equal(A->Blob.data() + AOff, A->Blob.data() + AOff + ALen,
                    B->Blob.data() + BOff);
}

/// Checks one slice: a fresh CheckerService over every object, seeded
/// from the slice's sidecar, fed the slice's records, then either
/// finished (final slice) or audited against the next sidecar's
/// baseline.
SliceResult runSlice(const EpochSlice &E, bool Final,
                     const std::vector<ChainSegment> &Segs,
                     size_t NumObjects, const PipelineFactory &Factory,
                     const EpochCheckOptions &Opts,
                     const SnapshotFile *NextSnap,
                     std::atomic<uint64_t> &Loads) {
  SliceResult Res;
  CheckerConfig CC = Opts.Checker;
  if (!Final) {
    // Executions that straddle the epoch boundary are completed by the
    // successor slice; an incomplete tail here is expected, not an error.
    CC.AllowIncompleteTail = true;
  }
  CheckerService Svc(CheckerServiceOptions{});
  if (!Svc.addObjects(NumObjects, Factory, CC, Res.Error))
    return Res;
  Res.Mismatch.assign(NumObjects, false);
  if (E.Snap) {
    if (!Svc.restoreFromSnapshot(*E.Snap, Res.RestoreError)) {
      Res.RestoreFailed = true;
      Svc.buildReport(Res.Report);
      return Res;
    }
    Loads.fetch_add(NumObjects, std::memory_order_relaxed);
  }
  CheckerService::LogFeed Feed = Svc.feedLog(Segs[E.SegPos].Path, E.EndSeq);
  Res.SeqHwm = Feed.SeqHwm;
  if (!Feed.ok()) {
    Violation V;
    V.Kind = ViolationKind::VK_Instrumentation;
    V.Seq = Feed.Malformed ? Res.SeqHwm : E.StartSeq;
    V.Message = Feed.Malformed
                    ? "malformed log record in epoch slice (chain " +
                          Segs[E.SegPos].Path + "...)"
                    : "cannot open log segment " + Segs[E.SegPos].Path;
    Res.Failures.push_back(V);
  }
  if (Final) {
    Svc.finishChecking();
  } else {
    // No finish (the open tail belongs to the successor, and finished
    // checkers refuse saveState): audit the end state against the
    // baseline the next epoch restored from. A checker with a violation
    // serializes nothing and so fails its audit, as it must.
    SnapshotFile Cut;
    Svc.cutSnapshot(Cut);
    for (size_t O = 0; O < NumObjects; ++O)
      Res.Mismatch[O] = !sameCore(Cut.find(static_cast<ObjectId>(O)),
                                  NextSnap->find(static_cast<ObjectId>(O)));
  }
  Svc.buildReport(Res.Report);
  Res.Unrouted = Svc.unroutedRecords();
  Res.FirstUnroutedSeq = Svc.firstUnroutedSeq();
  return Res;
}

/// True when \p Snap carries a restorable blob for every object id.
bool hasAllBlobs(const SnapshotFile &Snap, size_t NumObjects) {
  for (size_t O = 0; O < NumObjects; ++O)
    if (!Snap.find(static_cast<ObjectId>(O)))
      return false;
  return true;
}

} // namespace

EpochReport vyrd::epochCheck(const std::string &LogPath, size_t NumObjects,
                             const PipelineFactory &Factory,
                             const EpochCheckOptions &Opts) {
  EpochReport ER;
  std::vector<ChainSegment> Segs;
  if (!enumerateChain(LogPath, Segs) || Segs.empty()) {
    ER.Error = "no log file or segment chain at " + LogPath;
    return ER;
  }

  // Split the chain at usable sidecars. The front segment anchors epoch
  // 0: from zero when the chain is complete, from its sidecar when the
  // predecessors were reclaimed.
  std::vector<EpochSlice> Epochs;
  const ChainSegment &Front = Segs.front();
  bool FrontComplete = Front.Index <= 1; // plain file (0) or segment 1
  if (Opts.UseSnapshots && Front.HasSnapshot &&
      hasAllBlobs(Front.Snap, NumObjects)) {
    Epochs.push_back({0, &Front.Snap, Front.Snap.Watermark, UINT64_MAX});
  } else if (FrontComplete) {
    Epochs.push_back({0, nullptr, 0, UINT64_MAX});
  } else {
    ER.Error = "records before segment " + std::to_string(Front.Index) +
               " were reclaimed and no usable snapshot sidecar covers the "
               "cut; the chain cannot seed a checker (re-record with "
               "VerifierConfig::Snapshots, or keep the full chain)";
    return ER;
  }
  if (Opts.UseSnapshots && !Opts.ResumeOnly) {
    for (size_t P = 1; P < Segs.size(); ++P) {
      const ChainSegment &Seg = Segs[P];
      // A missing/corrupt sidecar, or one lacking an object's blob,
      // simply merges the segment into the previous epoch.
      if (!Seg.HasSnapshot || !hasAllBlobs(Seg.Snap, NumObjects))
        continue;
      Epochs.back().EndSeq = Seg.Snap.Watermark;
      Epochs.push_back({P, &Seg.Snap, Seg.Snap.Watermark, UINT64_MAX});
    }
  }
  const size_t NumEpochs = Epochs.size();
  ER.Epochs = NumEpochs;

  // One task per epoch, claimed off an atomic cursor by a small worker
  // pool. Results land in a pre-sized vector, so workers never contend
  // on anything but the cursor.
  std::vector<SliceResult> Results(NumEpochs);
  std::atomic<size_t> Cursor{0};
  std::atomic<uint64_t> Loads{0};
  auto Worker = [&] {
    while (true) {
      size_t E = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (E >= NumEpochs)
        return;
      bool Final = E + 1 == NumEpochs;
      Results[E] = runSlice(Epochs[E], Final, Segs, NumObjects, Factory, Opts,
                            Final ? nullptr : Epochs[E + 1].Snap, Loads);
    }
  };
  // More workers than epochs would only idle.
  size_t NThreads = std::clamp<size_t>(Opts.Threads, 1, NumEpochs);
  if (NThreads == 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(NThreads);
    for (size_t I = 0; I < NThreads; ++I)
      Pool.emplace_back(Worker);
    for (std::thread &W : Pool)
      W.join();
  }
  for (const SliceResult &Res : Results) {
    if (!Res.Error.empty()) {
      ER.Error = Res.Error;
      return ER;
    }
  }
  ER.Tasks = NumObjects * NumEpochs;

  // Stitch per object: the first epoch with a violation, a failed
  // restore or a baseline mismatch invalidates everything after it (the
  // later epochs' baselines descend from a state the bad epoch never
  // reached), so the object is re-checked serially from the last epoch
  // whose baseline is known good through the end of the chain. One
  // serial slice, seeded at the earliest bad epoch, re-checks every bad
  // object at once.
  std::vector<size_t> FirstBad(NumObjects, NumEpochs);
  size_t From = NumEpochs;
  for (size_t O = 0; O < NumObjects; ++O) {
    for (size_t E = 0; E < NumEpochs && FirstBad[O] == NumEpochs; ++E)
      if (Results[E].bad(O))
        FirstBad[O] = E;
    From = std::min(From, FirstBad[O]);
  }
  SliceResult Serial;
  if (From < NumEpochs) {
    // Fall back past epochs whose own restore failed: their sidecar
    // cannot seed the re-check either.
    while (From > 0 && Results[From].RestoreFailed)
      --From;
    EpochSlice Re = Epochs[From];
    Re.EndSeq = UINT64_MAX;
    Serial = runSlice(Re, /*Final=*/true, Segs, NumObjects, Factory, Opts,
                      nullptr, Loads);
    if (Serial.RestoreFailed) {
      // Even epoch 0's sidecar is unrestorable and the chain has no
      // complete prefix to fall back to.
      Violation V;
      V.Kind = ViolationKind::VK_Instrumentation;
      V.Seq = Re.StartSeq;
      V.Message = "snapshot sidecar for segment " +
                  std::to_string(Segs[Re.SegPos].Index) +
                  " cannot restore into the pipelines: " +
                  Serial.RestoreError;
      ER.Report.Violations.push_back(V);
    }
  }

  uint64_t SeqHwm = Serial.SeqHwm, Unrouted = 0, FirstUnroutedSeq = 0;
  for (const SliceResult &Res : Results) {
    SeqHwm = std::max(SeqHwm, Res.SeqHwm);
    ER.Report.Violations.insert(ER.Report.Violations.end(),
                                Res.Failures.begin(), Res.Failures.end());
    if (Res.Unrouted && !Unrouted)
      FirstUnroutedSeq = Res.FirstUnroutedSeq;
    Unrouted += Res.Unrouted;
  }
  for (size_t O = 0; O < NumObjects; ++O) {
    // Every epoch clean and every stitch audited: the final epoch's
    // checker carries the cumulative verdict (sidecar blobs restore the
    // running stats, so its stats are the object's totals).
    bool Clean = FirstBad[O] == NumEpochs;
    ObjectReport OR = (Clean ? Results.back() : Serial).Report.Objects[O];
    if (!Clean)
      ++ER.SerialRechecks;
    OR.Records = OR.Stats.ActionsFed;
    ER.Report.Stats.merge(OR.Stats);
    ER.Report.Violations.insert(ER.Report.Violations.end(),
                                OR.Violations.begin(), OR.Violations.end());
    ER.Report.Objects.push_back(std::move(OR));
  }
  sortViolationsBySeq(ER.Report.Violations);
  if (Unrouted)
    ER.Report.Violations.push_back(
        CheckerService::unroutedViolation(Unrouted, FirstUnroutedSeq));
  ER.Report.LogRecords = SeqHwm;
  ER.SnapshotLoads = Loads.load();
  ER.Report.Notes.push_back(
      "epoch check: " + std::to_string(NumEpochs) + " epoch(s) x " +
      std::to_string(NumObjects) + " object(s), " +
      std::to_string(ER.SerialRechecks) + " serial recheck(s)");
  return ER;
}
