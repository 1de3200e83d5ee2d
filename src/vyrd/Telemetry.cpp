//===- Telemetry.cpp - Pipeline metrics, lag gauge, watchdog --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Telemetry.h"

#include "vyrd/Instrument.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>

using namespace vyrd;

uint64_t vyrd::telemetryNowNanos() {
  timespec TS;
  clock_gettime(CLOCK_MONOTONIC, &TS);
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(TS.tv_nsec);
}

const char *vyrd::counterName(Counter C) {
  switch (C) {
  case Counter::C_HookRecords:
    return "hook_records";
  case Counter::C_LogAppends:
    return "log_appends";
  case Counter::C_AppendStalls:
    return "append_stalls";
  case Counter::C_FlushBatches:
    return "flush_batches";
  case Counter::C_FlushedRecords:
    return "flushed_records";
  case Counter::C_ReorderGrows:
    return "reorder_grows";
  case Counter::C_ReaderParks:
    return "reader_parks";
  case Counter::C_ReaderWakes:
    return "reader_wakes";
  case Counter::C_CheckerBatches:
    return "checker_batches";
  case Counter::C_CheckerActions:
    return "checker_actions";
  case Counter::C_LagSamples:
    return "lag_samples";
  case Counter::C_WatchdogStalls:
    return "watchdog_stalls";
  case Counter::C_BlockedAppends:
    return "blocked_appends";
  case Counter::C_BlockedNs:
    return "blocked_ns";
  case Counter::C_SegmentsCreated:
    return "segments_created";
  case Counter::C_SegmentsReclaimed:
    return "segments_reclaimed";
  case Counter::C_SnapshotWrites:
    return "snapshot_writes";
  case Counter::C_SnapshotSkips:
    return "snapshot_skips";
  case Counter::C_GaugeUnderflow:
    return "gauge_underflow";
  case Counter::C_ShipSegments:
    return "ship_segments";
  case Counter::C_ShipBytes:
    return "ship_bytes";
  case Counter::C_ShipAcks:
    return "ship_acks";
  case Counter::C_ShipRetries:
    return "ship_retries";
  case Counter::C_ShipSegmentsRecv:
    return "ship_segments_recv";
  case Counter::C_ShipRecordsRecv:
    return "ship_records_recv";
  case Counter::C_ShipCrcErrors:
    return "ship_crc_errors";
  case Counter::C_ShipResyncs:
    return "ship_resyncs";
  case Counter::C_ShipPartialDrops:
    return "ship_partial_drops";
  case Counter::NumCounters:
    break;
  }
  assert(false && "unknown Counter");
  return "?";
}

const char *vyrd::histoName(Histo H) {
  switch (H) {
  case Histo::H_AppendNs:
    return "append_latency";
  case Histo::H_FlushBatch:
    return "flush_batch_size";
  case Histo::H_ReorderOccupancy:
    return "reorder_occupancy";
  case Histo::H_FeedBatch:
    return "feed_batch_size";
  case Histo::H_FeedNs:
    return "feed_latency";
  case Histo::H_ViewCompareNs:
    return "view_compare_cost";
  case Histo::H_CheckerLag:
    return "checker_lag";
  case Histo::NumHistos:
    break;
  }
  assert(false && "unknown Histo");
  return "?";
}

const char *vyrd::histoUnit(Histo H) {
  switch (H) {
  case Histo::H_AppendNs:
  case Histo::H_FeedNs:
  case Histo::H_ViewCompareNs:
    return "ns";
  case Histo::H_FlushBatch:
  case Histo::H_FeedBatch:
    return "records";
  case Histo::H_ReorderOccupancy:
  case Histo::H_CheckerLag:
    return "seq";
  case Histo::NumHistos:
    break;
  }
  return "?";
}

const char *vyrd::gaugeName(Gauge G) {
  switch (G) {
  case Gauge::G_PendingRecords:
    return "pending_records";
  case Gauge::G_SegmentsLive:
    return "segments_live";
  case Gauge::G_ShipAckedWatermark:
    return "ship_acked_watermark";
  case Gauge::G_ShipUnshippedSegments:
    return "ship_unshipped_segments";
  case Gauge::NumGauges:
    break;
  }
  assert(false && "unknown Gauge");
  return "?";
}

//===----------------------------------------------------------------------===//
// Snapshot rendering
//===----------------------------------------------------------------------===//

/// Upper bound of bucket \p B (see TelemetryCell::bucketOf).
static uint64_t bucketBound(size_t B) {
  if (B == 0)
    return 0;
  if (B >= 64)
    return UINT64_MAX;
  return (1ull << B) - 1;
}

uint64_t HistoSnapshot::percentileBound(double P) const {
  if (!Count)
    return 0;
  double Target = double(Count) * P / 100.0;
  uint64_t Seen = 0;
  for (size_t B = 0; B < NumHistoBuckets; ++B) {
    Seen += Buckets[B];
    if (double(Seen) >= Target)
      return bucketBound(B);
  }
  return bucketBound(NumHistoBuckets - 1);
}

uint64_t HistoSnapshot::max() const {
  for (size_t B = NumHistoBuckets; B-- > 0;)
    if (Buckets[B])
      return bucketBound(B);
  return 0;
}

std::string TelemetrySnapshot::str() const {
  char Buf[192];
  std::string Out = "telemetry:\n";
  for (size_t C = 0; C < NumCounters; ++C) {
    if (!Counters[C])
      continue;
    std::snprintf(Buf, sizeof(Buf), "  %-18s %12" PRIu64 "\n",
                  counterName(static_cast<Counter>(C)), Counters[C]);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "  %-18s %12" PRIu64 "%s\n",
                "checker_lag_now", CheckerLag,
                Stalled ? "  ** STALLED **" : "");
  Out += Buf;
  for (size_t G = 0; G < NumGauges; ++G) {
    if (!Gauges[G] && !GaugeHwms[G])
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "  %-18s %12" PRIu64 "  hwm=%" PRIu64 "\n",
                  gaugeName(static_cast<Gauge>(G)), Gauges[G],
                  GaugeHwms[G]);
    Out += Buf;
  }
  for (size_t O = 0; O < Objects.size(); ++O) {
    const ObjectTelemetry &OT = Objects[O];
    std::string Label =
        OT.Name.empty() ? "object" + std::to_string(O) : OT.Name;
    std::snprintf(Buf, sizeof(Buf),
                  "  object %-11s routed=%-10" PRIu64 " checked=%-10" PRIu64
                  " backlog=%" PRIu64 "\n",
                  Label.c_str(), OT.Routed, OT.Checked, OT.Backlog);
    Out += Buf;
  }
  for (size_t H = 0; H < NumHistos; ++H) {
    const HistoSnapshot &HS = Histos[H];
    if (!HS.Count)
      continue;
    Histo HK = static_cast<Histo>(H);
    std::snprintf(Buf, sizeof(Buf),
                  "  %-18s n=%-10" PRIu64 " mean=%-12.1f p50<=%-10" PRIu64
                  " p99<=%-10" PRIu64 " max<=%" PRIu64 " %s\n",
                  histoName(HK), HS.Count, HS.mean(),
                  HS.percentileBound(50), HS.percentileBound(99), HS.max(),
                  histoUnit(HK));
    Out += Buf;
  }
  return Out;
}

std::string TelemetrySnapshot::json() const {
  char Buf[160];
  std::string Out = "{\"counters\":{";
  for (size_t C = 0; C < NumCounters; ++C) {
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%" PRIu64, C ? "," : "",
                  counterName(static_cast<Counter>(C)), Counters[C]);
    Out += Buf;
  }
  Out += "},\"gauges\":{";
  for (size_t G = 0; G < NumGauges; ++G) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\":{\"now\":%" PRIu64 ",\"hwm\":%" PRIu64 "}",
                  G ? "," : "", gaugeName(static_cast<Gauge>(G)), Gauges[G],
                  GaugeHwms[G]);
    Out += Buf;
  }
  Out += "},\"histograms\":{";
  for (size_t H = 0; H < NumHistos; ++H) {
    Histo HK = static_cast<Histo>(H);
    const HistoSnapshot &HS = Histos[H];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\"%s\":{\"unit\":\"%s\",\"count\":%" PRIu64
                  ",\"sum\":%" PRIu64 ",\"mean\":%.1f,\"p50\":%" PRIu64
                  ",\"p99\":%" PRIu64 ",\"max\":%" PRIu64 ",\"buckets\":[",
                  H ? "," : "", histoName(HK), histoUnit(HK), HS.Count,
                  HS.Sum, HS.mean(), HS.percentileBound(50),
                  HS.percentileBound(99), HS.max());
    Out += Buf;
    // Trailing zero buckets are elided; bucket i covers values of bit
    // width i (bucket 0 is exactly {0}).
    size_t Last = 0;
    for (size_t B = 0; B < NumHistoBuckets; ++B)
      if (HS.Buckets[B])
        Last = B + 1;
    for (size_t B = 0; B < Last; ++B) {
      std::snprintf(Buf, sizeof(Buf), "%s%" PRIu64, B ? "," : "",
                    HS.Buckets[B]);
      Out += Buf;
    }
    Out += "]}";
  }
  Out += "}";
  if (!Objects.empty()) {
    Out += ",\"objects\":{";
    for (size_t O = 0; O < Objects.size(); ++O) {
      const ObjectTelemetry &OT = Objects[O];
      std::string Label =
          OT.Name.empty() ? "object" + std::to_string(O) : OT.Name;
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\":{\"routed\":%" PRIu64 ",\"checked\":%" PRIu64
                    ",\"backlog\":%" PRIu64 "}",
                    O ? "," : "", Label.c_str(), OT.Routed, OT.Checked,
                    OT.Backlog);
      Out += Buf;
    }
    Out += "}";
  }
  std::snprintf(Buf, sizeof(Buf),
                "\"checker_lag\":%" PRIu64 ",\"stalled\":%s}", CheckerLag,
                Stalled ? "true" : "false");
  Out += ",";
  Out += Buf;
  return Out;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

namespace {

/// Process-unique ids (never reused) keying the thread-local cell cache,
/// exactly like BufferedLog's shard cache.
std::atomic<uint64_t> NextTelemetryId{1};

struct CellCacheEntry {
  uint64_t TelemetryId = 0;
  TelemetryCell *Cell = nullptr;
};
constexpr size_t CellCacheWays = 4;
thread_local CellCacheEntry CellCache[CellCacheWays];

void defaultStallReport(const std::string &Msg) {
  std::fprintf(stderr, "vyrd telemetry: %s\n", Msg.c_str());
}

} // namespace

Telemetry::Telemetry() : Telemetry(Options()) {}

Telemetry::Telemetry(Options O)
    : Opts(std::move(O)),
      InstanceId(NextTelemetryId.fetch_add(1, std::memory_order_relaxed)) {
  if (!Opts.StallReport)
    Opts.StallReport = defaultStallReport;
  if (Opts.SampleIntervalUs)
    startSampler();
}

Telemetry::~Telemetry() { stopSampler(); }

TelemetryCell &Telemetry::cell() {
  CellCacheEntry &E = CellCache[InstanceId % CellCacheWays];
  if (E.TelemetryId == InstanceId)
    return *E.Cell;
  ThreadId Tid = currentTid();
  std::lock_guard Lock(RegistryM);
  if (CellByTid.size() <= Tid)
    CellByTid.resize(Tid + 1);
  if (!CellByTid[Tid])
    CellByTid[Tid] = std::make_unique<TelemetryCell>();
  E.TelemetryId = InstanceId;
  E.Cell = CellByTid[Tid].get();
  return *E.Cell;
}

void Telemetry::startSampler() {
  if (SamplerRunning)
    return;
  SamplerRunning = true;
  SamplerStop.store(false, std::memory_order_relaxed);
  Sampler = std::thread([this] { samplerMain(); });
}

void Telemetry::stopSampler() {
  if (!SamplerRunning)
    return;
  SamplerStop.store(true, std::memory_order_relaxed);
  Sampler.join();
  SamplerRunning = false;
}

void Telemetry::samplerMain() {
  TelemetryCell &TC = cell();
  uint64_t IntervalNs =
      static_cast<uint64_t>(Opts.SampleIntervalUs ? Opts.SampleIntervalUs
                                                  : 1000) *
      1000;
  uint64_t QuietNs = static_cast<uint64_t>(Opts.WatchdogQuietMs) * 1000000;
  uint64_t LastConsumed = consumedSeq();
  uint64_t LastAdvanceNs = telemetryNowNanos();
  bool Reported = false;
  while (!SamplerStop.load(std::memory_order_relaxed)) {
    // Sleep in small slices so stopSampler() stays prompt even with long
    // sample intervals.
    uint64_t Slept = 0;
    while (Slept < IntervalNs &&
           !SamplerStop.load(std::memory_order_relaxed)) {
      uint64_t Slice = std::min<uint64_t>(IntervalNs - Slept, 2000000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(Slice));
      Slept += Slice;
    }
    if (SamplerStop.load(std::memory_order_relaxed))
      break;

    TelemetrySnapshot S = snapshot();
    uint64_t Lag = S.CheckerLag;
    TC.record(Histo::H_CheckerLag, Lag);
    TC.count(Counter::C_LagSamples);

    if (!QuietNs)
      continue;
    uint64_t Now = telemetryNowNanos();
    uint64_t ConsumedNow = consumedSeq();
    if (ConsumedNow != LastConsumed || Lag == 0) {
      LastConsumed = ConsumedNow;
      LastAdvanceNs = Now;
      StallFlag.store(false, std::memory_order_relaxed);
      Reported = false;
      continue;
    }
    if (Now - LastAdvanceNs >= QuietNs) {
      if (!Reported) {
        Reported = true;
        TC.count(Counter::C_WatchdogStalls);
        // Distinguish the two stall shapes: a checker that stopped
        // consuming (pending records pile up) vs producers parked on
        // backpressure behind a bound (appends blocked, pending at the
        // configured ceiling).
        uint64_t Pending = S.gauge(Gauge::G_PendingRecords);
        uint64_t Blocked = S.counter(Counter::C_BlockedAppends);
        Opts.StallReport(
            "verifier stalled: consumer stuck at seq " +
            std::to_string(ConsumedNow) + " with lag " +
            std::to_string(Lag) + " for over " +
            std::to_string(Opts.WatchdogQuietMs) + " ms (pending_records=" +
            std::to_string(Pending) + ", blocked_appends=" +
            std::to_string(Blocked) +
            (Blocked ? "; producers blocked on backpressure"
                     : "; checker slow") +
            ")");
      }
      // Raised only after the stall is counted and reported: whoever sees
      // the flag (acquire) also sees both.
      StallFlag.store(true, std::memory_order_release);
    }
  }
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot S;
  // The flag before the counters: a stalled snapshot always carries the
  // C_WatchdogStalls count the sampler made before raising it.
  S.Stalled = stalled();
  {
    std::lock_guard Lock(RegistryM);
    for (const auto &CellPtr : CellByTid) {
      if (!CellPtr)
        continue;
      const TelemetryCell &TC = *CellPtr;
      for (size_t C = 0; C < NumCounters; ++C)
        S.Counters[C] += TC.Counters[C].load(std::memory_order_relaxed);
      for (size_t H = 0; H < NumHistos; ++H) {
        HistoSnapshot &HS = S.Histos[H];
        for (size_t B = 0; B < NumHistoBuckets; ++B) {
          uint64_t N = TC.Buckets[H][B].load(std::memory_order_relaxed);
          HS.Buckets[B] += N;
          HS.Count += N;
        }
        HS.Sum += TC.Sums[H].load(std::memory_order_relaxed);
      }
    }
  }
  for (size_t G = 0; G < NumGauges; ++G) {
    // Value before HWM, and the HWM clamped to it: gaugeAdd raises its
    // HWM only after the add, so a snapshot can land between the two.
    S.Gauges[G] = GaugeNow[G].load(std::memory_order_acquire);
    S.GaugeHwms[G] = std::max(
        S.Gauges[G], GaugeHwm[G].load(std::memory_order_relaxed));
  }
  if (Opts.Pull)
    Opts.Pull(S);
  uint64_t Produced = S.counter(Counter::C_LogAppends);
  uint64_t ConsumedNow = consumedSeq();
  S.CheckerLag = Produced > ConsumedNow ? Produced - ConsumedNow : 0;
  return S;
}
