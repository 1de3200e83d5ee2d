//===- Verifier.cpp - Multi-object verification engine --------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Since the producer/checker split the Verifier is a thin composition:
// it owns the capture pipeline (log, telemetry, tracer, monitor) and
// delegates all checking to a CheckerService (CheckerService.cpp). The
// pump here either feeds the service directly (the historical in-process
// pipeline, bit-for-bit) or ships closed segments to a remote service
// through a SocketTransport (docs/SHIPPING.md).
//
//===----------------------------------------------------------------------===//

#include "vyrd/Verifier.h"

#include "vyrd/Snapshot.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace vyrd;

/// Records the consumption loops take from the log per batch.
static constexpr size_t PumpBatch = 256;
/// Longest an idle shipping pump waits on the socket for acks.
static constexpr unsigned AckPollMs = 10;

//===----------------------------------------------------------------------===//
// VerifierConfig
//===----------------------------------------------------------------------===//

std::string VerifierConfig::validate() const {
  if (ShardCapacity == 0)
    return "ShardCapacity must be >= 1";
  if (Backpressure.Enabled) {
    if (Backpressure.MaxPendingRecords == 0)
      return "Backpressure.MaxPendingRecords must be >= 1 when "
             "backpressure is enabled (a zero bound admits nothing)";
    if (!Online)
      return "Backpressure.Enabled requires Online = true (offline runs "
             "have no concurrent reader to make room; a blocked producer "
             "would deadlock)";
  }
  if (Snapshots) {
    if (!Backpressure.SegmentBytes)
      return "Snapshots requires Backpressure.SegmentBytes > 0 (snapshot "
             "sidecars ride the segment chain; an unsegmented log has no "
             "cut points)";
    if (LogFilePath.empty())
      return "Snapshots requires a file-backed log (set LogFilePath; "
             "sidecars live next to the segments)";
  }
  if (CheckerThreads == 0)
    return "CheckerThreads must be >= 1";
  if (CheckerThreads > 1 && !Online)
    return "CheckerThreads > 1 requires Online = true (the offline pass "
           "is a synchronous replay on the caller's thread)";
  if (Checker.MaxViolations == 0)
    return "Checker.MaxViolations must be >= 1 (0 would suppress every "
           "report)";
  if (Telemetry.WatchdogQuietMs && !Telemetry.Enabled)
    return "Telemetry.WatchdogQuietMs requires Telemetry.Enabled";
  if (Telemetry.SampleIntervalUs && !Telemetry.Enabled)
    return "Telemetry.SampleIntervalUs requires Telemetry.Enabled";
  if (!Monitor.SocketPath.empty()) {
    if (!Telemetry.Enabled)
      return "Monitor.SocketPath requires Telemetry.Enabled (the monitor "
             "serves Telemetry::snapshot(); without a hub there is "
             "nothing to report)";
    if (Monitor.MaxClients == 0)
      return "Monitor.MaxClients must be >= 1 (a zero bound admits no "
             "client)";
    if (Monitor.SocketPath.size() > maxUnixSocketPathLen())
      return "Monitor.SocketPath exceeds the sockaddr_un limit of " +
             std::to_string(maxUnixSocketPathLen()) +
             " bytes (the bind would silently truncate it)";
  }
  if (Shipping.enabled()) {
    ShipEndpoint Ep;
    std::string Err;
    if (!parseShipEndpoint(Shipping.Endpoint, Ep, Err))
      return "Shipping.Endpoint: " + Err;
    if (!Online)
      return "Shipping requires Online = true (the ship pump is the "
             "consumption thread; an offline run has nothing to stream)";
    if (LogFilePath.empty())
      return "Shipping requires a file-backed log (set LogFilePath; closed "
             "segment files are the shipping unit)";
    if (!Backpressure.SegmentBytes)
      return "Shipping requires Backpressure.SegmentBytes > 0 (closed "
             "segments are the shipping unit; an unsegmented log never "
             "closes one)";
    if (Shipping.Program.empty())
      return "Shipping.Program must name the pipeline the remote service "
             "builds (the records alone do not identify the specs)";
    if (Snapshots)
      return "Shipping excludes Snapshots (no checkers run in this "
             "process, so there is no local state to serialize at cuts)";
    if (Shipping.MaxRetries == 0)
      return "Shipping.MaxRetries must be >= 1";
  }
  return "";
}

//===----------------------------------------------------------------------===//
// VerifierReport
//===----------------------------------------------------------------------===//

std::string VerifierReport::str(size_t MaxListed) const {
  std::string Out;
  Out += "log: " + std::to_string(LogRecords) + " records";
  if (LogBytes)
    Out += ", " + std::to_string(LogBytes) + " bytes";
  Out += "\nchecked: " + std::to_string(Stats.MethodsChecked) + " methods (" +
         std::to_string(Stats.CommitsProcessed) + " commits, " +
         std::to_string(Stats.ObserversChecked) + " observers)\n";
  if (Objects.size() > 1) {
    Out += "objects:\n";
    for (const ObjectReport &O : Objects) {
      std::string Label =
          O.Name.empty() ? "object" + std::to_string(O.Id) : O.Name;
      Out += "  " + Label + ": " + std::to_string(O.Records) + " records, " +
             std::to_string(O.Stats.MethodsChecked) + " methods, " +
             std::to_string(O.Violations.size()) + " violation(s)\n";
    }
  }
  if (Backpressure.any()) {
    Out += "backpressure:";
    if (Backpressure.BlockedAppends)
      Out += " blocked_appends=" + std::to_string(Backpressure.BlockedAppends) +
             " blocked_ms=" +
             std::to_string(Backpressure.BlockedNanos / 1000000);
    if (Backpressure.PendingRecordsHwm)
      Out += " pending_hwm=" + std::to_string(Backpressure.PendingRecordsHwm);
    if (Backpressure.SegmentsCreated)
      Out += " segments=" + std::to_string(Backpressure.SegmentsCreated) +
             "/reclaimed=" + std::to_string(Backpressure.SegmentsReclaimed) +
             "/live_hwm=" + std::to_string(Backpressure.SegmentsLiveHwm);
    Out += "\n";
  }
  if (Shipping.Enabled) {
    Out += "shipping: endpoint=" + Shipping.Endpoint + " stream=" +
           Shipping.StreamName +
           " segments=" + std::to_string(Shipping.SegmentsShipped) +
           " bytes=" + std::to_string(Shipping.BytesShipped) +
           " acks=" + std::to_string(Shipping.Acks) +
           " acked_watermark=" + std::to_string(Shipping.AckedWatermark) +
           " final_ack=" + (Shipping.FinalAckOk ? "ok" : "missing");
    if (Shipping.Retries)
      Out += " retries=" + std::to_string(Shipping.Retries);
    if (Shipping.Degraded)
      Out += " degraded";
    if (Shipping.FallbackRecords)
      Out += " fallback_records=" + std::to_string(Shipping.FallbackRecords);
    Out += "\n";
  }
  for (const std::string &N : Notes)
    Out += "note: " + N + "\n";
  for (const std::string &F : ForensicFiles)
    Out += "forensics: " + F + "\n";
  if (Violations.empty())
    Out += "no refinement violations\n";
  else {
    Out += std::to_string(Violations.size()) + " violation(s):\n";
    size_t Listed = std::min(Violations.size(), MaxListed);
    for (size_t I = 0; I != Listed; ++I)
      Out += "  " + Violations[I].str() + "\n";
    if (Listed != Violations.size())
      Out += "  ... " + std::to_string(Violations.size() - Listed) +
             " more not listed\n";
  }
  if (TelemetryEnabled)
    Out += Telemetry.str();
  if (TraceEvents)
    Out += "trace: " + std::to_string(TraceEvents) + " events\n";
  return Out;
}

/// Renders one CheckerStats as a JSON object body (shared by the report
/// totals and the per-object breakdown).
static std::string statsJson(const CheckerStats &S) {
  std::string Out = "{";
  Out += "\"actions_fed\":" + std::to_string(S.ActionsFed);
  Out += ",\"methods_checked\":" + std::to_string(S.MethodsChecked);
  Out += ",\"commits_processed\":" + std::to_string(S.CommitsProcessed);
  Out += ",\"observers_checked\":" + std::to_string(S.ObserversChecked);
  Out += ",\"view_comparisons\":" + std::to_string(S.ViewComparisons);
  Out += ",\"audits\":" + std::to_string(S.Audits);
  Out += ",\"max_queue_depth\":" + std::to_string(S.MaxQueueDepth);
  Out += ",\"replay_ns\":" + std::to_string(S.ReplayNanos);
  Out += ",\"spec_ns\":" + std::to_string(S.SpecNanos);
  Out += ",\"view_compare_ns\":" + std::to_string(S.ViewCompareNanos);
  Out += "}";
  return Out;
}

/// Renders one BackpressureStats as a JSON object body.
static std::string backpressureJson(const BackpressureStats &S) {
  std::string Out = "{";
  Out += "\"blocked_appends\":" + std::to_string(S.BlockedAppends);
  Out += ",\"blocked_ns\":" + std::to_string(S.BlockedNanos);
  Out += ",\"pending_records_hwm\":" + std::to_string(S.PendingRecordsHwm);
  Out += ",\"segments_created\":" + std::to_string(S.SegmentsCreated);
  Out += ",\"segments_reclaimed\":" + std::to_string(S.SegmentsReclaimed);
  Out += ",\"segments_live_hwm\":" + std::to_string(S.SegmentsLiveHwm);
  Out += "}";
  return Out;
}

/// Escapes a note string for a JSON string literal (notes are generated
/// text; only quotes/backslashes/control bytes need care).
static std::string escapeNote(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  return Out;
}

std::string VerifierReport::json() const {
  std::string Out = "{";
  Out += "\"ok\":" + std::string(ok() ? "true" : "false");
  Out += ",\"violations\":" + std::to_string(Violations.size());
  Out += ",\"log_records\":" + std::to_string(LogRecords);
  Out += ",\"log_bytes\":" + std::to_string(LogBytes);
  Out += ",\"stats\":" + statsJson(Stats);
  Out += ",\"objects\":[";
  for (size_t I = 0; I < Objects.size(); ++I) {
    const ObjectReport &O = Objects[I];
    if (I)
      Out += ",";
    Out += "{\"id\":" + std::to_string(O.Id);
    Out += ",\"name\":\"" + O.Name + "\"";
    Out += ",\"records\":" + std::to_string(O.Records);
    Out += ",\"violations\":" + std::to_string(O.Violations.size());
    Out += ",\"stats\":" + statsJson(O.Stats);
    Out += "}";
  }
  Out += "]";
  if (Backpressure.any())
    Out += ",\"backpressure\":" + backpressureJson(Backpressure);
  if (Shipping.Enabled) {
    Out += ",\"shipping\":{";
    Out += "\"endpoint\":\"" + jsonEscape(Shipping.Endpoint) + "\"";
    Out += ",\"stream\":\"" + jsonEscape(Shipping.StreamName) + "\"";
    Out += ",\"segments_shipped\":" + std::to_string(Shipping.SegmentsShipped);
    Out += ",\"bytes_shipped\":" + std::to_string(Shipping.BytesShipped);
    Out += ",\"acks\":" + std::to_string(Shipping.Acks);
    Out += ",\"retries\":" + std::to_string(Shipping.Retries);
    Out += ",\"acked_watermark\":" + std::to_string(Shipping.AckedWatermark);
    Out += ",\"final_ack_ok\":" +
           std::string(Shipping.FinalAckOk ? "true" : "false");
    Out += ",\"degraded\":" +
           std::string(Shipping.Degraded ? "true" : "false");
    if (Shipping.FallbackRecords)
      Out += ",\"fallback_records\":" +
             std::to_string(Shipping.FallbackRecords);
    Out += "}";
  }
  if (!Notes.empty()) {
    Out += ",\"notes\":[";
    for (size_t I = 0; I < Notes.size(); ++I) {
      if (I)
        Out += ",";
      Out += "\"" + escapeNote(Notes[I]) + "\"";
    }
    Out += "]";
  }
  if (TelemetryEnabled)
    Out += ",\"telemetry\":" + Telemetry.json();
  if (TraceEvents)
    Out += ",\"trace_events\":" + std::to_string(TraceEvents);
  if (!ForensicFiles.empty()) {
    Out += ",\"forensic_files\":[";
    for (size_t I = 0; I < ForensicFiles.size(); ++I) {
      if (I)
        Out += ",";
      Out += "\"" + jsonEscape(ForensicFiles[I]) + "\"";
    }
    Out += "]";
  }
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

/// The monitor's window into a live Verifier: telemetry through the
/// lock-free snapshot path, violations/forensics through the checker
/// service's published live state. Runs on the monitor thread;
/// everything it touches outlives the MonitorServer (member declaration
/// order).
class Verifier::MonitorAdapter : public MonitorSource {
public:
  explicit MonitorAdapter(Verifier &V) : V(V) {}
  TelemetrySnapshot telemetrySnapshot() override {
    return V.Telem ? V.Telem->snapshot() : TelemetrySnapshot();
  }
  std::vector<Violation> liveViolations() override {
    return V.Svc->liveViolations();
  }
  std::vector<std::string> forensicFiles() override {
    return V.Svc->forensicFiles();
  }

private:
  Verifier &V;
};

Verifier::Verifier(VerifierConfig C) : Config(std::move(C)) {
  std::string Err = Config.validate();
  if (!Err.empty()) {
    std::fprintf(stderr, "vyrd: invalid VerifierConfig: %s\n", Err.c_str());
    std::abort();
  }
  // The one place a disabled bound is decided: it is a bound of SIZE_MAX.
  const size_t Bound = Config.Backpressure.Enabled
                           ? Config.Backpressure.MaxPendingRecords
                           : SIZE_MAX;
  {
    BufferedLog::Options BO;
    BO.ShardCapacity = Config.ShardCapacity;
    BO.FilePath = Config.LogFilePath;
    BO.SegmentBytes = Config.Backpressure.SegmentBytes;
    BO.ReclaimSegments = Config.Backpressure.ReclaimSegments;
    BO.MaxPendingRecords = Bound;
    TheLog = std::make_unique<BufferedLog>(std::move(BO));
    assert(TheLog->valid() && "cannot open log file");
  }
  if (Config.Telemetry.Enabled) {
    Telemetry::Options TO;
    TO.SampleIntervalUs = Config.Telemetry.SampleIntervalUs;
    TO.WatchdogQuietMs = Config.Telemetry.WatchdogQuietMs;
    if (TO.WatchdogQuietMs && !TO.SampleIntervalUs)
      TO.SampleIntervalUs = 1000; // the watchdog needs sample points
    TO.Pull = [this](TelemetrySnapshot &S) { pullTelemetry(S); };
    Telem = std::make_unique<Telemetry>(std::move(TO));
    TheLog->setTelemetry(Telem.get());
  }
  if (!Config.Telemetry.TraceFilePath.empty())
    Tracer = std::make_unique<TraceRecorder>();
  {
    CheckerServiceOptions SO;
    SO.MaxPendingRecords = Bound;
    SO.ForensicPrefix = Config.ForensicPrefix;
    SO.SnapshotBase = Config.LogFilePath;
    Svc = std::make_unique<CheckerService>(std::move(SO));
    Svc->setTelemetry(Telem.get());
    Svc->setTracer(Tracer.get());
  }
  if (!Config.Monitor.SocketPath.empty()) {
    MonSource = std::make_unique<MonitorAdapter>(*this);
    Mon = std::make_unique<MonitorServer>(Config.Monitor, *MonSource);
    if (!Mon->valid())
      std::fprintf(stderr, "vyrd: monitor disabled: %s\n",
                   Mon->error().c_str());
  }
}

Verifier::Verifier(std::unique_ptr<Spec> S, std::unique_ptr<Replayer> R,
                   VerifierConfig C)
    : Verifier(std::move(C)) {
  assert(S && "Verifier requires a specification");
  // The anonymous single object of the historical interface: reports and
  // violation strings stay exactly as they were before the multi-object
  // engine.
  (void)registerObject("", std::move(S), std::move(R), Config.Checker);
}

Verifier::~Verifier() {
  if (Started && !Done)
    (void)finish();
  // The sampler pulls from Svc and Transport, which go before Telem.
  if (Telem)
    Telem->stopSampler();
}

Hooks Verifier::registerObject(std::string ObjName, std::unique_ptr<Spec> S,
                               std::unique_ptr<Replayer> R,
                               CheckerConfig CC) {
  assert(!Started && "registerObject after start");
  ObjectId Id = Svc->addObject(std::move(ObjName), std::move(S),
                               std::move(R), CC);
  return hooks(Id);
}

Hooks Verifier::registerObject(std::string ObjName, std::unique_ptr<Spec> S,
                               std::unique_ptr<Replayer> R) {
  return registerObject(std::move(ObjName), std::move(S), std::move(R),
                        Config.Checker);
}

Hooks Verifier::hooks(ObjectId Id) const {
  assert(Id < Svc->objectCount() && "hooks for unregistered object");
  LogLevel Level = Svc->objectMode(Id) == CheckMode::CM_ViewRefinement
                       ? LogLevel::LL_View
                       : LogLevel::LL_IO;
  return Hooks(TheLog.get(), Level, Telem.get(), Id);
}

Hooks Verifier::hooks() const {
  assert(Svc->objectCount() && "no object registered");
  return hooks(0);
}

void Verifier::pump() {
  // Batch consumption amortizes one log wakeup + lock round trip over up
  // to PumpBatch records; each record is then routed to its object's
  // pipeline (the checkers themselves stay record-at-a-time).
  std::vector<Action> Batch;
  Batch.reserve(PumpBatch);
  TelemetryCell *TC = Telem ? &Telem->cell() : nullptr;
  const bool SnapshotsOn = Config.Snapshots && Config.Backpressure.SegmentBytes;
  std::vector<SegmentCut> Cuts; ///< pending cut points, oldest first
  uint64_t RoutedUpto = 0;      ///< exclusive frontier of routed records
  while (TheLog->nextBatch(Batch, PumpBatch)) {
    uint64_t FirstSeq = Batch.front().Seq;
    uint64_t LastSeq = Batch.back().Seq;
    size_t NumActions = Batch.size();
    if (TC)
      TC->count(Counter::C_CheckerBatches);
    size_t Begin = 0;
    if (SnapshotsOn) {
      TheLog->takeSegmentCuts(Cuts);
      // Split the batch at each cut that falls inside it: route the
      // records before the cut, serialize the checkers aligned exactly
      // on it, then resume routing. A cut at LastSeq + 1 sits at the
      // batch boundary and is taken after the whole batch is routed.
      while (!Cuts.empty() && Cuts.front().FirstSeq <= LastSeq + 1) {
        SegmentCut Cut = Cuts.front();
        Cuts.erase(Cuts.begin());
        if (Cut.FirstSeq < RoutedUpto) {
          // Late cut: the log reported the cut after the pump consumed
          // past it. BufferedLog's sink records a cut before a merge round
          // publishes records past it, so this is a guard for other Log
          // implementations. Nothing to align on — skip.
          if (Telem)
            Telem->count(Counter::C_SnapshotSkips);
          continue;
        }
        size_t Split = static_cast<size_t>(
            std::lower_bound(Batch.begin() + Begin, Batch.end(),
                             Cut.FirstSeq,
                             [](const Action &A, uint64_t S) {
                               return A.Seq < S;
                             }) -
            Batch.begin());
        Svc->routeRange(Batch, Begin, Split, TC);
        Begin = Split;
        RoutedUpto = Cut.FirstSeq;
        Svc->takeSnapshot(Cut.Index, Cut.FirstSeq);
      }
    }
    Svc->routeRange(Batch, Begin, Batch.size(), TC);
    RoutedUpto = LastSeq + 1;
    if (Telem)
      Telem->noteConsumed(LastSeq + 1);
    if (Tracer)
      Tracer->noteCheckSpan(FirstSeq, LastSeq, NumActions);
    // Checked-prefix reclamation: everything fed inline is checked
    // through LastSeq; with a pool, the watermark stops at the oldest
    // record still pending on any object.
    if (Config.Backpressure.SegmentBytes)
      TheLog->reclaimCheckedPrefix(Svc->checkedWatermark(LastSeq + 1));
    if (Tracer && Telem) {
      Tracer->noteGauge(LastSeq, "pending_records",
                        Telem->gauge(Gauge::G_PendingRecords));
      if (Config.Backpressure.SegmentBytes) {
        BackpressureStats B = TheLog->backpressureStats();
        Tracer->noteGauge(LastSeq, "segments_live",
                          B.SegmentsCreated - B.SegmentsReclaimed);
      }
    }
  }
  Svc->finishChecking();
  // Everything is checked now; release any remaining reclaimable
  // segments (the active one is always kept).
  if (Config.Backpressure.SegmentBytes)
    TheLog->reclaimCheckedPrefix(TheLog->appendCount());
}

void Verifier::shipPump() {
  // The shipping consumption loop never touches a checker: it drains the
  // log (so the bounded tail keeps moving and blocked producers wake),
  // turns segment rotations into shipSegment calls, and trims the chain
  // as the remote checker's watermark advances. Memory stays bounded on
  // both sides: here by SegmentBytes x live segments, there by the
  // receiver's feed.
  std::vector<Action> Batch;
  Batch.reserve(PumpBatch);
  std::vector<SegmentCut> Cuts;
  uint64_t ShippedUpto = 0; ///< every record below it has been shipped
  for (bool End = false; !End;) {
    // While acks are due, wait on the socket rather than on the log, so
    // acks that arrive after the program went quiet still reclaim segments.
    if (Transport->healthy() && Transport->ackedWatermark() < ShippedUpto) {
      if (!TheLog->tryNextBatch(Batch, PumpBatch, End) && !End)
        Transport->waitForAck(ShippedUpto, AckPollMs);
    } else {
      End = !TheLog->nextBatch(Batch, PumpBatch);
    }
    if (!Batch.empty()) {
      uint64_t LastSeq = Batch.back().Seq;
      TheLog->takeSegmentCuts(Cuts);
      for (const SegmentCut &Cut : Cuts) {
        Shipper->noteCut(Cut.Index);
        ShippedUpto = Cut.FirstSeq;
      }
      Cuts.clear();
      if (Telem)
        Telem->noteConsumed(LastSeq + 1);
    }
    // Reclamation is gated on the REMOTE ack watermark, never the local
    // consumption frontier: a segment leaves this disk only after the
    // checker fleet confirmed it fed every record in it.
    TheLog->reclaimCheckedPrefix(Transport->ackedWatermark());
  }
  // Rotations reported after the reader drained (close() flushes the
  // final writes) still need shipping before finish() ships the last
  // open segment.
  TheLog->takeSegmentCuts(Cuts);
  for (const SegmentCut &Cut : Cuts)
    Shipper->noteCut(Cut.Index);
}

void Verifier::start() {
  assert(!Started && "start called twice");
  assert(Svc->objectCount() &&
         "start with no registered object (registerObject first)");
  // validate() admits shipping and a pool only online.
  if (Config.Shipping.enabled()) {
    Transport = std::make_unique<SocketTransport>(Config.Shipping);
    Shipper = std::make_unique<SegmentShipper>(*Transport,
                                               Config.LogFilePath,
                                               Telem.get());
  } else if (Config.CheckerThreads > 1) {
    Svc->startPool(Config.CheckerThreads);
  }
  // Publishes the objects, the pool and the transport to pullTelemetry.
  Started.store(true, std::memory_order_release);
  if (Config.Online)
    VerifyThread = std::thread([this] { Transport ? shipPump() : pump(); });
}

void Verifier::pullTelemetry(TelemetrySnapshot &S) const {
  S.counter(Counter::C_LogAppends) = TheLog->appendCount();
  if (!Started.load(std::memory_order_acquire))
    return;
  BackpressureStats B = TheLog->backpressureStats();
  Svc->mergePoolStats(B);
  S.counter(Counter::C_BlockedAppends) = B.BlockedAppends;
  S.counter(Counter::C_BlockedNs) = B.BlockedNanos;
  S.counter(Counter::C_SegmentsCreated) = B.SegmentsCreated;
  S.counter(Counter::C_SegmentsReclaimed) = B.SegmentsReclaimed;
  S.setGauge(Gauge::G_SegmentsLive, B.SegmentsCreated - B.SegmentsReclaimed,
             B.SegmentsLiveHwm);
  Svc->pullTelemetry(S);
  if (Transport) {
    SocketTransport::Stats TS = Transport->stats();
    S.counter(Counter::C_ShipSegments) = TS.Segments;
    S.counter(Counter::C_ShipBytes) = TS.Bytes;
    S.counter(Counter::C_ShipAcks) = TS.Acks;
    S.counter(Counter::C_ShipRetries) = TS.Retries;
    uint64_t W = Transport->ackedWatermark();
    S.setGauge(Gauge::G_ShipAckedWatermark, W, W);
  }
}

bool Verifier::degradeShipping(VerifierReport &R,
                               uint64_t FinalSeqExclusive) {
  R.Shipping.Degraded = true;
  uint64_t Acked = Transport->ackedWatermark();
  uint64_t Unverified =
      FinalSeqExclusive > Acked ? FinalSeqExclusive - Acked : 0;
  // A sound local verdict needs the chain from record 0 — which is
  // exactly what survives when the fleet never acked (acks are the only
  // thing that reclaims). A partially acked-and-reclaimed chain cannot be
  // re-checked (shipped runs write no sidecars), so its unacked suffix is
  // noted as unverified.
  std::vector<ChainSegment> Chain;
  if (enumerateChain(Config.LogFilePath, Chain) && !Chain.empty() &&
      Chain.front().Index <= 1) {
    CheckerService::LogFeed Feed =
        Svc->feedLog(Chain.front().Path, FinalSeqExclusive);
    if (Feed.ok()) {
      R.Notes.push_back("shipping degraded: checker fleet at " +
                        Config.Shipping.Endpoint +
                        " unreachable; surviving chain re-checked locally, "
                        "the verdict below is sound");
      return true;
    }
    R.Notes.push_back("shipping degraded: local re-check failed: " +
                      std::string(Feed.Malformed ? "malformed record in "
                                                 : "cannot open ") +
                      Chain.front().Path);
  }
  R.Notes.push_back(
      std::string(violationKindName(ViolationKind::VK_Degraded)) + ": " +
      std::to_string(Unverified) +
      " record(s) unverified (checker fleet unreachable and the "
      "partially reclaimed chain cannot be re-checked locally)");
  return false;
}

VerifierReport Verifier::finish() {
  assert(Started && "finish before start");
  assert(!Done && "finish called twice");
  Done = true;
  TheLog->close();
  if (Config.Online)
    VerifyThread.join();
  else
    pump();

  VerifierReport R;
  bool LocalFallbackRan = false;
  if (Config.Shipping.enabled()) {
    uint64_t FinalSeq = TheLog->appendCount();
    bool Ok = Shipper->finish(FinalSeq, Config.Shipping.FinalAckTimeoutMs);
    R.Shipping.Enabled = true;
    R.Shipping.Endpoint = Config.Shipping.Endpoint;
    R.Shipping.StreamName = Config.Shipping.StreamName.empty()
                                ? "stream"
                                : Config.Shipping.StreamName;
    R.Shipping.FinalAckOk = Ok;
    if (Ok) {
      TheLog->reclaimCheckedPrefix(Transport->ackedWatermark());
      R.Notes.push_back(
          "shipped: verdicts live with the remote checker at " +
          Config.Shipping.Endpoint + " (session \"" +
          R.Shipping.StreamName + "\")");
    } else {
      LocalFallbackRan = degradeShipping(R, FinalSeq);
    }
    SocketTransport::Stats TS = Transport->stats();
    R.Shipping.SegmentsShipped = TS.Segments;
    R.Shipping.BytesShipped = TS.Bytes;
    R.Shipping.Acks = TS.Acks;
    R.Shipping.Retries = TS.Retries;
    R.Shipping.AckedWatermark = Transport->ackedWatermark();
  }
  Svc->finishChecking();
  Svc->buildReport(R);
  if (LocalFallbackRan) {
    uint64_t N = 0;
    for (const ObjectReport &O : R.Objects)
      N += O.Records;
    R.Shipping.FallbackRecords = N;
  }
  R.LogRecords = TheLog->appendCount();
  R.LogBytes = TheLog->byteCount();
  R.Backpressure = TheLog->backpressureStats();
  Svc->mergePoolStats(R.Backpressure);
  R.ForensicFiles = Svc->forensicFiles();
  if (Telem) {
    Telem->stopSampler();
    R.TelemetryEnabled = true;
    R.Telemetry = Telem->snapshot();
  }
  if (Tracer) {
    // Violations become instants on the verifier track, so the trace
    // shows *where* in the witness each was detected.
    for (const Violation &V : R.Violations) {
      std::string Label = std::string("violation: ") + violationKindName(V.Kind);
      if (V.Object.valid())
        Label += " [" + std::string(V.Object.str()) + "]";
      Tracer->noteVerifierInstant(V.Seq, std::move(Label));
    }
    R.TraceEvents = Tracer->eventCount();
    if (!Tracer->writeFile(Config.Telemetry.TraceFilePath))
      std::fprintf(stderr, "vyrd: cannot write trace file %s\n",
                   Config.Telemetry.TraceFilePath.c_str());
  }
  return R;
}
