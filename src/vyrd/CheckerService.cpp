//===- CheckerService.cpp - The checker half of a verification run --------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Extracted verbatim from the monolithic Verifier: the demux, the checker
// pool, violation publication, forensics and snapshot cuts moved here so
// the same machinery can run behind a SocketTransport in a separate
// checker process (vyrd-checkd). Operation order is preserved exactly —
// the in-process composition must keep record streams and reports
// bit-identical to the pre-split engine.
//
//===----------------------------------------------------------------------===//

#include "vyrd/CheckerService.h"

#include "vyrd/Log.h"
#include "vyrd/Ring.h"
#include "vyrd/Serialize.h"
#include "vyrd/Verifier.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <thread>

using namespace vyrd;

//===----------------------------------------------------------------------===//
// CheckerService::ObjectState / CheckerService::CheckerPool
//===----------------------------------------------------------------------===//

/// Everything one registered object owns: its spec, shadow state and
/// checker pipeline, plus the demux/pool bookkeeping.
struct CheckerService::ObjectState {
  ObjectId Id = 0;
  std::string Name;
  std::unique_ptr<Spec> S;
  std::unique_ptr<Replayer> R;
  CheckerConfig CheckerCfg;
  std::unique_ptr<RefinementChecker> Checker;
  /// Records routed to this object / fed to its checker so far. Each has
  /// one writer (the driving thread / the thread owning Checker), so an
  /// update is a load and a store; atomics so pullTelemetry can read them
  /// live. Checked is released and read first, which keeps a live
  /// Routed >= Checked.
  std::atomic<uint64_t> Routed{0};
  std::atomic<uint64_t> Checked{0};

  // Pool scheduling state, guarded by CheckerPool::M. An object is
  // "scheduled" from the moment it enters the runnable queue until the
  // worker that picked it up finds its pending queue empty, so at most
  // one worker touches Checker at a time and batches are fed FIFO.
  // ChunkQueue (not a deque) so the steady state — a few batches deep —
  // cycles through the same cache-hot chunks with zero heap traffic.
  ChunkQueue<std::vector<Action>> PendingBatches;
  bool Scheduled = false;
  /// Checker violations already copied into CheckerService::Live
  /// (accessed only by the thread currently owning the checker, like
  /// Checker).
  size_t Published = 0;
  /// The object's forensic bundle has been flushed (first violation
  /// only; same ownership rule as Published).
  bool ForensicWritten = false;
  /// Records dispatched to this object and not yet fed (pending batches
  /// plus the batch a worker is feeding right now). Guarded by
  /// CheckerPool::M.
  uint64_t PendingRecs = 0;
  /// Every record with Seq < FedExclusive has been fed to the checker.
  /// Guarded by CheckerPool::M; meaningful while PendingRecs > 0 (an
  /// idle object is checked through everything routed to it).
  uint64_t FedExclusive = 0;
};

/// The verification worker pool. Scheduling unit: one object. dispatch()
/// enqueues a demuxed batch on the object and makes the object runnable
/// if it isn't already; a worker that picks up an object owns it — and
/// thereby its checker, exclusively — until it has drained every pending
/// batch. Per-object order is FIFO through PendingBatches; cross-object
/// parallelism is bounded by min(objects, workers).
class CheckerService::CheckerPool {
public:
  CheckerPool(CheckerService &S, unsigned NumWorkers)
      : S(S), Bound(S.Opts.MaxPendingRecords) {
    Workers.reserve(NumWorkers);
    for (unsigned I = 0; I < NumWorkers; ++I)
      Workers.emplace_back([this] { workerMain(); });
  }

  ~CheckerPool() { drainAndJoin(); }

  /// Called by the driving thread only. Takes \p Batch and leaves a
  /// recycled (empty, capacity-bearing) vector in its place, so the pump
  /// and the workers circulate a bounded set of batch buffers instead of
  /// allocating a fresh one per dispatch.
  ///
  /// The total records pending across objects are bounded by
  /// MaxPendingRecords: a batch that meets the bound parks the pump until
  /// workers drain below it, so the pressure propagates back into the
  /// log. Admission is sliced at the free room, so occupancy never
  /// exceeds the bound (a batch-granular path would overshoot by up to a
  /// whole pump batch). An unbounded pool (SIZE_MAX) never waits.
  void dispatch(ObjectState &O, std::vector<Action> &Batch) {
    std::unique_lock Lock(M);
    const size_t Total = Batch.size();
    size_t Begin = 0;
    bool MovedWhole = false;
    while (Begin < Total) {
      if (PendingRecs >= Bound) {
        uint64_t T0 = telemetryNowNanos();
        SpaceCV.wait(Lock, [&] { return PendingRecs < Bound; });
        ++Stats.BlockedAppends;
        Stats.BlockedNanos += telemetryNowNanos() - T0;
      }
      // Enqueue the slice that fits the free room and make the object
      // runnable. A whole-batch slice moves the vector itself (the
      // recycled-buffer protocol with the pump); a partial slice moves the
      // records into a freelist buffer so the next slice can still wait
      // for room.
      size_t N = std::min<uint64_t>(Total - Begin, Bound - PendingRecs);
      std::vector<Action> Slice;
      if (N == Total) {
        Slice = std::move(Batch);
        if (FreeBatches.empty()) {
          Batch = std::vector<Action>();
        } else {
          Batch = std::move(FreeBatches.back());
          FreeBatches.pop_back();
        }
        MovedWhole = true;
      } else {
        if (!FreeBatches.empty()) {
          Slice = std::move(FreeBatches.back());
          FreeBatches.pop_back();
        }
        Slice.insert(Slice.end(),
                     std::make_move_iterator(Batch.begin() + Begin),
                     std::make_move_iterator(Batch.begin() + Begin + N));
      }
      PendingRecs += N;
      O.PendingRecs += N;
      Stats.PendingRecordsHwm =
          std::max(Stats.PendingRecordsHwm, PendingRecs);
      if (S.Telem)
        S.Telem->gaugeAdd(Gauge::G_PendingRecords, N);
      O.PendingBatches.push_back(std::move(Slice));
      if (!O.Scheduled) {
        O.Scheduled = true;
        ++ActiveObjects;
        Runnable.push_back(&O);
        WorkCV.notify_one();
      }
      Begin += N;
    }
    if (!MovedWhole)
      Batch.clear(); // records moved out slice-by-slice; keep capacity
  }

  /// The sequence number below which every record dispatched to the pool
  /// has been fed to its checker, capped at \p Upper (the pump's routed
  /// frontier). The pump passes this to BufferedLog::reclaimCheckedPrefix.
  uint64_t checkedWatermark(uint64_t Upper) {
    std::lock_guard Lock(M);
    uint64_t W = Upper;
    for (const auto &O : S.Objects)
      if (O->PendingRecs)
        W = std::min(W, O->FedExclusive);
    return W;
  }

  BackpressureStats stats() const {
    std::lock_guard Lock(M);
    return Stats;
  }

  /// Mid-run barrier: waits until every dispatched batch has been fed
  /// (snapshot cuts need all checkers aligned exactly on the cut). The
  /// pool keeps running — unlike drainAndJoin, the workers are not
  /// stopped. Driving thread only; since it is the sole dispatcher, no
  /// new work can race in while it waits here.
  void quiesce() {
    std::unique_lock Lock(M);
    IdleCV.wait(Lock, [&] { return ActiveObjects == 0; });
  }

  /// Waits until every dispatched batch has been checked, then stops and
  /// joins the workers. Called by the driving thread after the stream is
  /// drained (no dispatch() can race with it). Idempotent.
  void drainAndJoin() {
    {
      std::unique_lock Lock(M);
      if (Joined)
        return;
      IdleCV.wait(Lock, [&] { return ActiveObjects == 0; });
      Stopping = true;
      Joined = true;
    }
    WorkCV.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

private:
  void workerMain() {
    TelemetryCell *TC = S.Telem ? &S.Telem->cell() : nullptr;
    std::unique_lock Lock(M);
    while (true) {
      WorkCV.wait(Lock, [&] { return Stopping || !Runnable.empty(); });
      if (Runnable.empty())
        return; // Stopping, nothing left to do.
      ObjectState *O = Runnable.front();
      Runnable.pop_front();
      // Drain the object. Hand-offs between workers are synchronized by
      // M: the previous owner released it under M before this worker
      // claimed it, so the checker's single-threaded contract holds.
      while (true) {
        if (O->PendingBatches.empty()) {
          O->Scheduled = false;
          if (--ActiveObjects == 0)
            IdleCV.notify_all();
          break;
        }
        std::vector<Action> Batch = std::move(O->PendingBatches.front());
        O->PendingBatches.pop_front();
        Lock.unlock();
        S.feedObject(*O, Batch, TC);
        uint64_t BatchN = Batch.size();
        uint64_t BatchEnd = BatchN ? Batch.back().Seq + 1 : 0;
        // Release the records outside the lock; hand the empty buffer
        // (capacity intact) back to the pump via the freelist.
        Batch.clear();
        Lock.lock();
        // Account the batch as fed only now: until this point it was
        // neither pending nor checked, and the watermark must not
        // advance past records still being fed (reclamation would delete
        // the segment holding them).
        if (BatchN) {
          O->FedExclusive = std::max(O->FedExclusive, BatchEnd);
          O->PendingRecs -= BatchN;
          PendingRecs -= BatchN;
          if (S.Telem)
            S.Telem->gaugeSub(Gauge::G_PendingRecords, BatchN);
          SpaceCV.notify_one();
        }
        if (FreeBatches.size() < MaxFreeBatches)
          FreeBatches.push_back(std::move(Batch));
      }
    }
  }

  CheckerService &S;
  const uint64_t Bound; ///< CheckerServiceOptions::MaxPendingRecords
  mutable std::mutex M;
  std::condition_variable WorkCV; ///< workers wait for runnable objects
  std::condition_variable IdleCV; ///< drainAndJoin waits for quiescence
  std::condition_variable SpaceCV; ///< pump waits for room at Bound
  BackpressureStats Stats;         ///< admission accounting (guarded by M)
  /// Records pending across all objects (dispatched, not yet fed).
  uint64_t PendingRecs = 0;
  std::deque<ObjectState *> Runnable;
  /// Consumed batch buffers awaiting reuse by dispatch() (bounded so a
  /// burst cannot pin memory forever).
  static constexpr size_t MaxFreeBatches = 64;
  std::vector<std::vector<Action>> FreeBatches;
  /// Objects currently scheduled (runnable or being drained by a worker).
  size_t ActiveObjects = 0;
  bool Stopping = false;
  bool Joined = false;
  std::vector<std::thread> Workers;
};

//===----------------------------------------------------------------------===//
// CheckerService
//===----------------------------------------------------------------------===//

CheckerService::CheckerService(CheckerServiceOptions O) : Opts(std::move(O)) {}

CheckerService::~CheckerService() = default;

ObjectId CheckerService::addObject(std::string Name, std::unique_ptr<Spec> S,
                                   std::unique_ptr<Replayer> R,
                                   CheckerConfig CC) {
  assert(S && "addObject requires a specification");
  assert((R || CC.Mode != CheckMode::CM_ViewRefinement) &&
         "view refinement requires a replayer for the shadow state");
  auto O = std::make_unique<ObjectState>();
  O->Id = static_cast<ObjectId>(Objects.size());
  O->Name = std::move(Name);
  O->S = std::move(S);
  O->R = std::move(R);
  // Armed forensics imply a flight recorder; a config that set its own
  // depth keeps it.
  if (!Opts.ForensicPrefix.empty() && CC.FlightRecorderDepth == 0)
    CC.FlightRecorderDepth = 64;
  O->CheckerCfg = CC;
  O->Checker =
      std::make_unique<RefinementChecker>(*O->S, O->R.get(), O->CheckerCfg);
  O->Checker->setTelemetry(Telem);
  if (Tracer && !O->Name.empty())
    Tracer->setObjectName(O->Id, O->Name);
  ObjectId Id = O->Id;
  Objects.push_back(std::move(O));
  return Id;
}

bool CheckerService::addObjects(size_t NumObjects,
                                const PipelineFactory &Factory,
                                const CheckerConfig &CC, std::string &Err) {
  for (size_t Id = 0; Id < NumObjects; ++Id) {
    std::string Name;
    std::unique_ptr<Spec> S;
    std::unique_ptr<Replayer> R;
    if (!Factory(static_cast<ObjectId>(Id), Name, S, R) || !S) {
      Err = "pipeline factory does not know object " + std::to_string(Id);
      return false;
    }
    addObject(std::move(Name), std::move(S), std::move(R), CC);
  }
  return true;
}

CheckMode CheckerService::objectMode(ObjectId Id) const {
  assert(Id < Objects.size() && "mode of unregistered object");
  return Objects[Id]->CheckerCfg.Mode;
}

void CheckerService::startPool(unsigned NumWorkers) {
  assert(!Pool && "startPool called twice");
  Pool = std::make_unique<CheckerPool>(*this, NumWorkers);
}

void CheckerService::feedObject(ObjectState &O,
                                const std::vector<Action> &Batch,
                                TelemetryCell *TC) {
  uint64_t T0 = TC ? telemetryNowNanos() : 0;
  for (const Action &A : Batch)
    O.Checker->feed(A);
  O.Checked.store(O.Checked.load(std::memory_order_relaxed) + Batch.size(),
                  std::memory_order_release);
  if (TC) {
    TC->record(Histo::H_FeedBatch, Batch.size());
    TC->record(Histo::H_FeedNs, telemetryNowNanos() - T0);
  }
  if (O.Checker->hasViolation()) {
    ViolationFlag.store(true, std::memory_order_release);
    publishObjectViolations(O);
  }
}

void CheckerService::publishObjectViolations(ObjectState &O) {
  const std::vector<Violation> &Vs = O.Checker->violations();
  if (Vs.size() == O.Published)
    return;
  Name Tag = O.Name.empty() ? Name() : internName(O.Name);
  {
    std::lock_guard Lock(Live.M);
    for (size_t I = O.Published; I < Vs.size(); ++I) {
      Violation V = Vs[I];
      V.Obj = O.Id;
      V.Object = Tag;
      Live.Violations.push_back(std::move(V));
    }
  }
  O.Published = Vs.size();
  maybeWriteForensic(O);
}

void CheckerService::maybeWriteForensic(ObjectState &O) {
  if (Opts.ForensicPrefix.empty() || O.ForensicWritten)
    return;
  // First violation that captured a bundle (bundles are parallel to
  // violations; entries are empty when the flight recorder is off).
  const std::vector<std::string> &Bundles = O.Checker->forensics();
  const std::string *Bundle = nullptr;
  for (const std::string &B : Bundles)
    if (!B.empty()) {
      Bundle = &B;
      break;
    }
  if (!Bundle)
    return;
  O.ForensicWritten = true;
  std::string Label =
      O.Name.empty() ? "object" + std::to_string(O.Id) : O.Name;
  std::string Path =
      Opts.ForensicPrefix + "." + Label + ".forensic.json";
  std::string Doc = "{\"schema\":\"vyrd-forensic-v1\",\"object\":{\"id\":" +
                    std::to_string(O.Id) + ",\"name\":\"" +
                    jsonEscape(Label) + "\"},\"checker\":" + *Bundle +
                    "}\n";
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "vyrd: cannot write forensic bundle %s\n",
                 Path.c_str());
    return;
  }
  std::fwrite(Doc.data(), 1, Doc.size(), F);
  std::fclose(F);
  std::lock_guard Lock(Live.M);
  Live.ForensicFiles.push_back(std::move(Path));
}

void CheckerService::routeRange(std::vector<Action> &Batch, size_t Begin,
                                size_t End, TelemetryCell *TC) {
  if (Route.size() != Objects.size())
    Route.resize(Objects.size());
  for (size_t I = Begin; I < End; ++I) {
    Action &A = Batch[I];
    if (Tracer)
      Tracer->noteAction(A);
    if (A.Obj < Route.size()) {
      Route[A.Obj].push_back(std::move(A));
    } else {
      if (!UnroutedRecords)
        FirstUnroutedSeq = A.Seq;
      ++UnroutedRecords;
    }
  }
  for (size_t I = 0; I < Route.size(); ++I) {
    if (Route[I].empty())
      continue;
    ObjectState &O = *Objects[I];
    O.Routed.store(O.Routed.load(std::memory_order_relaxed) + Route[I].size(),
                   std::memory_order_relaxed);
    if (Pool) {
      // dispatch() swaps in a recycled empty buffer for the next round.
      Pool->dispatch(O, Route[I]);
    } else {
      feedObject(O, Route[I], TC);
      Route[I].clear();
    }
  }
}

uint64_t CheckerService::checkedWatermark(uint64_t Upper) {
  return Pool ? Pool->checkedWatermark(Upper) : Upper;
}

CheckerService::LogFeed CheckerService::feedLog(const std::string &Path,
                                                uint64_t EndSeq) {
  constexpr size_t FeedBatch = 256; ///< records per routeRange call
  LogFeed Out;
  LogFileReader Reader(Path);
  std::vector<Action> Batch;
  Batch.reserve(FeedBatch);
  while (true) {
    Batch.emplace_back();
    if (!Reader.next(Batch.back()) || Batch.back().Seq >= EndSeq) {
      Batch.pop_back();
      break;
    }
    Out.SeqHwm = std::max(Out.SeqHwm, Batch.back().Seq + 1);
    if (Batch.size() == FeedBatch) {
      routeRange(Batch, 0, Batch.size(), nullptr);
      Batch.clear();
    }
  }
  routeRange(Batch, 0, Batch.size(), nullptr);
  Out.Malformed = Reader.malformed();
  Out.Unopenable = !Reader.valid() && !Out.Malformed;
  return Out;
}

void CheckerService::takeSnapshot(uint64_t SegIndex, uint64_t CutSeq) {
  if (Opts.SnapshotBase.empty())
    return;
  // Every record below the cut has been routed; with a pool, wait until
  // the workers have actually fed them, so the serialized state is the
  // checkers' state exactly at the cut.
  if (Pool)
    Pool->quiesce();
  SnapshotFile SF;
  SF.SegmentIndex = SegIndex;
  SF.Watermark = CutSeq;
  // A partial sidecar could not seed a resume: one unserializable
  // checker makes the whole cut unsnapshottable.
  if (!cutSnapshot(SF)) {
    if (Telem)
      Telem->count(Counter::C_SnapshotSkips);
    return;
  }
  std::string Path = snapshotSidecarPath(Opts.SnapshotBase, SegIndex);
  if (!writeSnapshotFile(Path, SF)) {
    std::fprintf(stderr, "vyrd: cannot write snapshot sidecar %s\n",
                 Path.c_str());
    if (Telem)
      Telem->count(Counter::C_SnapshotSkips);
    return;
  }
  if (Telem)
    Telem->count(Counter::C_SnapshotWrites);
  if (Tracer)
    Tracer->noteVerifierInstant(CutSeq, "snapshot: segment " +
                                            std::to_string(SegIndex));
}

bool CheckerService::cutSnapshot(SnapshotFile &SF) {
  bool All = true;
  for (auto &O : Objects) {
    ByteWriter W;
    if (!O->Checker->saveState(W)) {
      All = false;
      continue;
    }
    SnapshotObject SO;
    SO.Id = O->Id;
    SO.Name = O->Name;
    SO.Blob = W.buffer();
    SF.Objects.push_back(std::move(SO));
  }
  return All;
}

bool CheckerService::restoreFromSnapshot(const SnapshotFile &Snap,
                                         std::string &Err) {
  for (auto &O : Objects) {
    const SnapshotObject *SO = Snap.find(O->Id);
    if (!SO) {
      Err = "snapshot for segment " + std::to_string(Snap.SegmentIndex) +
            " carries no state for object " + std::to_string(O->Id);
      return false;
    }
    ByteReader Blob(SO->Blob.data(), SO->Blob.size());
    if (!O->Checker->restoreState(Blob)) {
      Err = "snapshot blob for object " + std::to_string(O->Id) +
            " does not restore (incompatible spec/replayer?)";
      return false;
    }
  }
  return true;
}

void CheckerService::finishChecking() {
  if (Finished)
    return;
  Finished = true;
  if (Pool)
    Pool->drainAndJoin();
  for (auto &O : Objects) {
    O->Checker->finish();
    if (O->Checker->hasViolation()) {
      ViolationFlag.store(true, std::memory_order_release);
      publishObjectViolations(*O);
    }
  }
}

void CheckerService::buildReport(VerifierReport &R) {
  for (auto &OS : Objects) {
    ObjectReport OR;
    OR.Id = OS->Id;
    OR.Name = OS->Name;
    OR.Stats = OS->Checker->stats();
    OR.Records = OS->Routed.load(std::memory_order_relaxed);
    OR.Violations = OS->Checker->violations();
    Name Tag = OS->Name.empty() ? Name() : internName(OS->Name);
    for (Violation &V : OR.Violations) {
      V.Obj = OS->Id;
      V.Object = Tag;
    }
    R.Stats.merge(OR.Stats);
    R.Violations.insert(R.Violations.end(), OR.Violations.begin(),
                        OR.Violations.end());
    R.Objects.push_back(std::move(OR));
  }
  // Merge the per-object violation lists back into witness order.
  sortViolationsBySeq(R.Violations);
  if (UnroutedRecords) {
    R.Violations.push_back(
        unroutedViolation(UnroutedRecords, FirstUnroutedSeq));
    ViolationFlag.store(true, std::memory_order_release);
  }
}

Violation CheckerService::unroutedViolation(uint64_t Count,
                                            uint64_t FirstSeq) {
  Violation V;
  V.Kind = ViolationKind::VK_Instrumentation;
  V.Seq = FirstSeq;
  V.Message = std::to_string(Count) +
              " log records reference unregistered object ids (hooks "
              "outliving their verifier, or log corruption)";
  return V;
}

void CheckerService::mergePoolStats(BackpressureStats &S) const {
  if (Pool)
    S.merge(Pool->stats());
}

void CheckerService::pullTelemetry(TelemetrySnapshot &S) const {
  uint64_t Checked = 0;
  for (const auto &O : Objects) {
    ObjectTelemetry OT;
    OT.Name = O->Name;
    OT.Checked = O->Checked.load(std::memory_order_acquire);
    OT.Routed = O->Routed.load(std::memory_order_relaxed);
    OT.Backlog = OT.Routed - OT.Checked;
    Checked += OT.Checked;
    S.Objects.push_back(std::move(OT));
  }
  S.counter(Counter::C_CheckerActions) = Checked;
}

std::vector<Violation> CheckerService::liveViolations() const {
  std::lock_guard Lock(Live.M);
  return Live.Violations;
}

std::vector<std::string> CheckerService::forensicFiles() const {
  std::lock_guard Lock(Live.M);
  return Live.ForensicFiles;
}
