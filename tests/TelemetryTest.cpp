//===- TelemetryTest.cpp - Tests for the telemetry subsystem --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the metric primitives (cells, counters, histogram bucketing),
/// concurrent conservation (what N threads write is exactly what
/// snapshot() reads back), the checker-lag gauge, the stall watchdog with
/// a deliberately stalled consumer, and the end-to-end pipeline wiring
/// through a Verifier run. The concurrent tests are part of the TSan
/// suite (build-tsan) — the telemetry hot path must be exactly as
/// data-race-free as it claims.
///
//===----------------------------------------------------------------------===//

#include "TelemetryCheck.h"
#include "TestUtil.h"
#include "multiset/ArrayMultiset.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Telemetry.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

using namespace vyrd;
using namespace vyrd::test;

namespace {

/// Spin-waits (with sleeps) until \p Pred holds or ~2 s pass.
template <typename PredT> bool eventually(PredT Pred) {
  for (int I = 0; I < 400; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Pred();
}

} // namespace

TEST(TelemetryTest, BucketOfIsBitWidth) {
  EXPECT_EQ(TelemetryCell::bucketOf(0), 0u);
  EXPECT_EQ(TelemetryCell::bucketOf(1), 1u);
  EXPECT_EQ(TelemetryCell::bucketOf(2), 2u);
  EXPECT_EQ(TelemetryCell::bucketOf(3), 2u);
  EXPECT_EQ(TelemetryCell::bucketOf(4), 3u);
  EXPECT_EQ(TelemetryCell::bucketOf(1023), 10u);
  EXPECT_EQ(TelemetryCell::bucketOf(1024), 11u);
  // Everything past the bucket range clamps into the last bucket.
  EXPECT_EQ(TelemetryCell::bucketOf(UINT64_MAX), NumHistoBuckets - 1);
}

TEST(TelemetryTest, SnapshotSumsKnownValues) {
  Telemetry T;
  T.count(Counter::C_HookRecords, 3);
  T.count(Counter::C_HookRecords);
  T.record(Histo::H_AppendNs, 0);
  T.record(Histo::H_AppendNs, 1);
  T.record(Histo::H_AppendNs, 5);
  T.record(Histo::H_AppendNs, 1024);

  TelemetrySnapshot S = T.snapshot();
  EXPECT_EQ(S.counter(Counter::C_HookRecords), 4u);
  EXPECT_EQ(S.counter(Counter::C_AppendStalls), 0u);
  const HistoSnapshot &H = S.histo(Histo::H_AppendNs);
  EXPECT_EQ(H.Count, 4u);
  EXPECT_EQ(H.Sum, 1030u);
  EXPECT_DOUBLE_EQ(H.mean(), 1030.0 / 4);
  EXPECT_EQ(H.Buckets[0], 1u); // the 0
  EXPECT_EQ(H.Buckets[1], 1u); // the 1
  EXPECT_EQ(H.Buckets[3], 1u); // the 5
  EXPECT_EQ(H.Buckets[11], 1u); // the 1024
  // p50 falls in the bucket holding the 2nd of 4 samples; max covers 1024.
  EXPECT_EQ(H.percentileBound(50), 1u);
  EXPECT_EQ(H.max(), (1ull << 11) - 1);
}

TEST(TelemetryTest, ConcurrentWritersConserveTotals) {
  constexpr unsigned Threads = 8;
  constexpr unsigned CountsPerThread = 10000;
  constexpr unsigned RecordsPerThread = 1000;

  Telemetry T;
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Threads; ++W)
    Workers.emplace_back([&T] {
      TelemetryCell &C = T.cell();
      for (unsigned I = 0; I < CountsPerThread; ++I)
        C.count(Counter::C_HookRecords);
      for (unsigned I = 0; I < RecordsPerThread; ++I)
        C.record(Histo::H_FeedBatch, I % 64);
      // Reading while writers run must be safe (approximate totals).
      (void)T.snapshot();
    });
  for (auto &W : Workers)
    W.join();

  TelemetrySnapshot S = T.snapshot();
  EXPECT_EQ(S.counter(Counter::C_HookRecords),
            uint64_t(Threads) * CountsPerThread);
  const HistoSnapshot &H = S.histo(Histo::H_FeedBatch);
  EXPECT_EQ(H.Count, uint64_t(Threads) * RecordsPerThread);
  uint64_t SumPerThread = 0;
  for (unsigned I = 0; I < RecordsPerThread; ++I)
    SumPerThread += I % 64;
  EXPECT_EQ(H.Sum, uint64_t(Threads) * SumPerThread);
}

TEST(TelemetryTest, TwoHubsKeepSeparateCells) {
  Telemetry A, B;
  A.count(Counter::C_HookRecords, 7);
  B.count(Counter::C_HookRecords, 2);
  EXPECT_EQ(A.snapshot().counter(Counter::C_HookRecords), 7u);
  EXPECT_EQ(B.snapshot().counter(Counter::C_HookRecords), 2u);
}

TEST(TelemetryTest, GaugeSubClampsAtZeroAndCountsUnderflow) {
  Telemetry T;
  T.gaugeAdd(Gauge::G_PendingRecords, 2);
  // Mismatched sub: must clamp to 0, not wrap to ~2^64 (which would
  // also poison the HWM via the next gaugeAdd).
  T.gaugeSub(Gauge::G_PendingRecords, 5);
  TelemetrySnapshot S = T.snapshot();
  EXPECT_EQ(S.gauge(Gauge::G_PendingRecords), 0u);
  EXPECT_EQ(S.gaugeHwm(Gauge::G_PendingRecords), 2u);
  EXPECT_EQ(S.counter(Counter::C_GaugeUnderflow), 1u);

  // A balanced pair afterwards behaves normally and stays silent.
  T.gaugeAdd(Gauge::G_PendingRecords, 3);
  T.gaugeSub(Gauge::G_PendingRecords, 3);
  S = T.snapshot();
  EXPECT_EQ(S.gauge(Gauge::G_PendingRecords), 0u);
  EXPECT_EQ(S.gaugeHwm(Gauge::G_PendingRecords), 3u);
  EXPECT_EQ(S.counter(Counter::C_GaugeUnderflow), 1u);
}

namespace {

/// Options whose pull reports \p Produced as log_appends.
Telemetry::Options pullingAppends(const std::atomic<uint64_t> &Produced) {
  Telemetry::Options O;
  O.Pull = [&Produced](TelemetrySnapshot &S) {
    S.counter(Counter::C_LogAppends) = Produced.load();
  };
  return O;
}

} // namespace

TEST(TelemetryTest, CheckerLagGauge) {
  std::atomic<uint64_t> Produced{100};
  Telemetry T(pullingAppends(Produced));

  EXPECT_EQ(T.snapshot().CheckerLag, 100u);
  T.noteConsumed(40);
  EXPECT_EQ(T.consumedSeq(), 40u);
  TelemetrySnapshot S = T.snapshot();
  EXPECT_EQ(S.CheckerLag, 60u);
  EXPECT_EQ(S.counter(Counter::C_LogAppends), 100u)
      << "the pulled count lands in the snapshot";
  // A consumer momentarily ahead of the pull clamps to zero.
  T.noteConsumed(200);
  EXPECT_EQ(T.snapshot().CheckerLag, 0u);

  Telemetry NoPull;
  NoPull.noteConsumed(10);
  EXPECT_EQ(NoPull.snapshot().CheckerLag, 0u);
}

TEST(TelemetryTest, SamplerRecordsLag) {
  std::atomic<uint64_t> Produced{50};
  Telemetry::Options O = pullingAppends(Produced);
  O.SampleIntervalUs = 200;
  Telemetry T(std::move(O));
  ASSERT_TRUE(eventually([&T] {
    return T.snapshot().counter(Counter::C_LagSamples) >= 3;
  }));
  T.stopSampler();

  TelemetrySnapshot S = T.snapshot();
  const HistoSnapshot &Lag = S.histo(Histo::H_CheckerLag);
  EXPECT_EQ(Lag.Count, S.counter(Counter::C_LagSamples));
  // Every sample saw the constant lag of 50 (bit width 6).
  EXPECT_EQ(Lag.Buckets[6], Lag.Count);
}

TEST(TelemetryTest, WatchdogReportsStalledConsumer) {
  std::mutex MsgM;
  std::string Msg;
  std::atomic<unsigned> Reports{0};

  std::atomic<uint64_t> Produced{50}; // work always pending
  Telemetry::Options O = pullingAppends(Produced);
  O.SampleIntervalUs = 200;
  O.WatchdogQuietMs = 10;
  O.StallReport = [&](const std::string &M) {
    std::lock_guard Lock(MsgM);
    Msg = M;
    Reports.fetch_add(1);
  };
  Telemetry T(std::move(O));

  // The consumer never advances: the watchdog must trip, once.
  ASSERT_TRUE(eventually([&T] { return T.stalled(); }));
  EXPECT_EQ(Reports.load(), 1u);
  {
    std::lock_guard Lock(MsgM);
    EXPECT_NE(Msg.find("stalled"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("lag 50"), std::string::npos) << Msg;
  }
  TelemetrySnapshot S = T.snapshot();
  EXPECT_TRUE(S.Stalled);
  EXPECT_EQ(S.counter(Counter::C_WatchdogStalls), 1u);
  EXPECT_NE(S.str().find("** STALLED **"), std::string::npos);

  // Catching up clears the flag (lag drops to zero).
  T.noteConsumed(50);
  ASSERT_TRUE(eventually([&T] { return !T.stalled(); }));
  T.stopSampler();
}

TEST(TelemetryTest, SnapshotRendersValidJson) {
  Telemetry T;
  T.count(Counter::C_CheckerBatches, 12);
  T.record(Histo::H_FeedNs, 900);
  TelemetrySnapshot S = T.snapshot();
  std::string J = S.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"checker_batches\":12"), std::string::npos) << J;
  EXPECT_NE(J.find("\"feed_latency\""), std::string::npos) << J;
}

TEST(TelemetryTest, MetricNamesAreDefined) {
  for (size_t C = 0; C < NumCounters; ++C)
    EXPECT_STRNE(counterName(static_cast<Counter>(C)), "?");
  for (size_t H = 0; H < NumHistos; ++H) {
    EXPECT_STRNE(histoName(static_cast<Histo>(H)), "?");
    EXPECT_STRNE(histoUnit(static_cast<Histo>(H)), "?");
  }
  for (size_t G = 0; G < NumGauges; ++G)
    EXPECT_STRNE(gaugeName(static_cast<Gauge>(G)), "?");
}

TEST(TelemetryTest, GaugeSetOverwritesAndKeepsHwm) {
  // gaugeSet is a plain relaxed store: the value is a point-in-time truth
  // (the shipper's unshipped segment count), the HWM keeps the largest
  // value ever published.
  Telemetry T;
  T.gaugeSet(Gauge::G_ShipUnshippedSegments, 512);
  T.gaugeSet(Gauge::G_ShipUnshippedSegments, 2048);
  T.gaugeSet(Gauge::G_ShipUnshippedSegments, 128);
  TelemetrySnapshot S = T.snapshot();
  EXPECT_EQ(S.gauge(Gauge::G_ShipUnshippedSegments), 128u);
  EXPECT_EQ(S.gaugeHwm(Gauge::G_ShipUnshippedSegments), 2048u);
  std::string J = S.json();
  EXPECT_NE(J.find("\"ship_unshipped_segments\":{\"now\":128,\"hwm\":2048}"),
            std::string::npos)
      << J;
}

TEST(TelemetryTest, ControlGaugesAreSafeUnderConcurrentSnapshots) {
  // One writer hammering gaugeSet (as the ship pump does for the
  // unshipped segment count) while another thread snapshots: relaxed
  // atomics, no torn or out-of-range values ever observed.
  Telemetry T;
  std::atomic<bool> Stop{false};
  std::thread Writer([&] {
    for (uint64_t I = 1; !Stop.load(std::memory_order_relaxed); ++I) {
      T.gaugeSet(Gauge::G_ShipUnshippedSegments, 64 + (I % 8192));
      T.gaugeSet(Gauge::G_PendingRecords, I % 3);
    }
  });
  for (int I = 0; I < 200; ++I) {
    TelemetrySnapshot S = T.snapshot();
    uint64_t Level = S.gauge(Gauge::G_ShipUnshippedSegments);
    if (Level) {
      EXPECT_GE(Level, 64u);
      EXPECT_LT(Level, 64u + 8192u);
      EXPECT_LE(Level, S.gaugeHwm(Gauge::G_ShipUnshippedSegments));
    }
    EXPECT_LT(S.gauge(Gauge::G_PendingRecords), 3u);
  }
  Stop.store(true, std::memory_order_relaxed);
  Writer.join();
}

//===----------------------------------------------------------------------===//
// End-to-end pipeline wiring
//===----------------------------------------------------------------------===//

namespace {

VerifierReport runInstrumentedMultiset(VerifierConfig VC, unsigned Ops) {
  Verifier V(std::make_unique<multiset::MultisetSpec>(),
             KeyValueReplayer::guardedBag("A"), VC);
  V.start();
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 16;
  multiset::ArrayMultiset M(MO, V.hooks());
  for (unsigned I = 0; I < Ops; ++I) {
    M.insert(I % 7);
    M.lookUp(I % 7);
    if (I % 3 == 0)
      M.remove(I % 7);
  }
  return V.finish();
}

} // namespace

TEST(TelemetryTest, PipelineCountersBalance) {
  VerifierConfig VC;
  VC.Online = true;
  VC.Telemetry.Enabled = true;
  VerifierReport R = runInstrumentedMultiset(VC, 200);
  ASSERT_TRUE(R.ok()) << R.str();
  ASSERT_TRUE(R.TelemetryEnabled);

  const TelemetrySnapshot &S = R.Telemetry;
  // Every hook record was appended, and every appended record reached the
  // checker — nothing lost between the stages.
  expectTelemetryMatchesReport(R);
  EXPECT_EQ(S.counter(Counter::C_HookRecords), R.LogRecords);
  EXPECT_EQ(S.counter(Counter::C_CheckerActions), R.LogRecords);
  EXPECT_GE(S.counter(Counter::C_CheckerBatches), 1u);
  EXPECT_EQ(S.histo(Histo::H_FeedBatch).Count,
            S.counter(Counter::C_CheckerBatches));
  EXPECT_EQ(S.histo(Histo::H_FeedBatch).Sum,
            S.counter(Counter::C_CheckerActions));
  EXPECT_GT(S.histo(Histo::H_FeedNs).Count, 0u);
  // View mode compares at every commit.
  EXPECT_EQ(S.histo(Histo::H_ViewCompareNs).Count,
            R.Stats.ViewComparisons);
  // The report embeds the snapshot in both renderings.
  EXPECT_NE(R.str().find("telemetry:"), std::string::npos);
  EXPECT_TRUE(jsonValid(R.json())) << R.json();
}

TEST(TelemetryTest, BufferedBackendFeedsFlusherMetrics) {
  VerifierConfig VC;
  VC.Online = true;
  VC.Telemetry.Enabled = true;
  VerifierReport R = runInstrumentedMultiset(VC, 200);
  ASSERT_TRUE(R.ok()) << R.str();

  const TelemetrySnapshot &S = R.Telemetry;
  EXPECT_EQ(S.counter(Counter::C_FlushedRecords), R.LogRecords);
  EXPECT_GE(S.counter(Counter::C_FlushBatches), 1u);
  EXPECT_EQ(S.histo(Histo::H_FlushBatch).Sum,
            S.counter(Counter::C_FlushedRecords));
  EXPECT_GT(S.histo(Histo::H_AppendNs).Count, 0u);
}

TEST(TelemetryTest, DisabledTelemetryLeavesReportEmpty) {
  VerifierConfig VC;
  VC.Online = true;
  VerifierReport R = runInstrumentedMultiset(VC, 50);
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.TelemetryEnabled);
  EXPECT_EQ(R.Telemetry.counter(Counter::C_LogAppends), 0u);
  EXPECT_TRUE(jsonValid(R.json())) << R.json();
}

TEST(TelemetryTest, VerifierExposesLiveLag) {
  VerifierConfig VC;
  VC.Online = true;
  VC.Telemetry.Enabled = true;
  VC.Telemetry.SampleIntervalUs = 500;
  Verifier V(std::make_unique<multiset::MultisetSpec>(),
             KeyValueReplayer::guardedBag("A"), VC);
  ASSERT_NE(V.telemetry(), nullptr);
  V.start();
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 16;
  multiset::ArrayMultiset M(MO, V.hooks());
  for (unsigned I = 0; I < 100; ++I)
    M.insert(I % 5);
  VerifierReport R = V.finish();
  ASSERT_TRUE(R.ok()) << R.str();
  // The drained pipeline converges to zero lag, and the sampler ran.
  EXPECT_EQ(R.Telemetry.CheckerLag, 0u);
  EXPECT_FALSE(R.Telemetry.Stalled);
}

//===----------------------------------------------------------------------===//
// Per-object counters (the multi-object engine's telemetry dimension)
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, PerObjectCountersRenderInJsonAndText) {
  Telemetry::Options O;
  O.Pull = [](TelemetrySnapshot &S) {
    ObjectTelemetry OT;
    OT.Name = "alpha";
    OT.Routed = OT.Checked = 4;
    S.Objects.push_back(OT);
  };
  Telemetry T(std::move(O));
  TelemetrySnapshot S = T.snapshot();
  std::string J = S.json();
  EXPECT_TRUE(jsonValid(J)) << J;
  EXPECT_NE(J.find("\"alpha\":{\"routed\":4,\"checked\":4,\"backlog\":0"),
            std::string::npos)
      << J;
  EXPECT_NE(S.str().find("alpha"), std::string::npos);
}

TEST(TelemetryTest, MultiObjectVerifierRunPopulatesObjectCounters) {
  VerifierConfig VC;
  VC.Online = true;
  VC.CheckerThreads = 2;
  VC.Telemetry.Enabled = true;
  Verifier V(VC);
  Hooks A = V.registerObject("a", std::make_unique<multiset::MultisetSpec>(),
                             KeyValueReplayer::guardedBag("A"));
  Hooks B = V.registerObject("b", std::make_unique<multiset::MultisetSpec>(),
                             KeyValueReplayer::guardedBag("A"));
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 8;
  V.start();
  multiset::ArrayMultiset MA(MO, A), MB(MO, B);
  for (int I = 0; I < 10; ++I) {
    MA.insert(I % 3);
    MB.insert(I % 3);
    MB.remove(I % 3);
  }
  VerifierReport R = V.finish();
  ASSERT_TRUE(R.ok()) << R.str();
  expectTelemetryMatchesReport(R);
  ASSERT_EQ(R.Telemetry.Objects.size(), 2u);
  for (const ObjectTelemetry &O : R.Telemetry.Objects)
    EXPECT_GT(O.Routed, 0u) << O.Name;
  // The per-object routed counts partition the consumed stream.
  EXPECT_EQ(R.Telemetry.Objects[0].Routed + R.Telemetry.Objects[1].Routed,
            R.LogRecords);
}
