//===- AdaptiveTest.cpp - Self-tuning pipeline controller tests -----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the adaptive pipeline at three layers: the AdaptiveController
/// in isolation (fake-clock AIMD steps, escalation-ladder hysteresis —
/// no sleeps, fully deterministic), the checker-pool admission clamp the
/// controller made load-bearing (the bound must hold exactly even when
/// the pump batch outgrows it), and end-to-end Verifier runs where a
/// throttled checker forces real escalations whose verdicts must match
/// the unbounded run. The multi-producer stress is part of the TSan
/// suite — the policy/batch cells are read on producer, flusher and pump
/// threads concurrently.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "vyrd/Adaptive.h"
#include "vyrd/Log.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <unistd.h>

using namespace vyrd;
using namespace vyrd::test;

namespace {

/// Fake monotonic clock for driving observe() without sleeps.
struct FakeClock {
  uint64_t NowNs = 1; // never 0: observe() treats 0 as "unset"
  uint64_t advanceUs(uint64_t Us) { return NowNs += Us * 1000; }
};

AdaptiveConfig testConfig() {
  AdaptiveConfig A;
  A.Enabled = true;
  A.MinBatch = 64;
  A.InitialBatch = 256;
  A.MaxBatch = 1024;
  A.GrowStep = 128;
  A.ShrinkFactor = 0.5;
  A.GrowLagRecords = 1000;
  A.ShrinkLagRecords = 100;
  A.DecisionIntervalUs = 100;
  return A;
}

} // namespace

//===----------------------------------------------------------------------===//
// Config validation
//===----------------------------------------------------------------------===//

TEST(AdaptiveConfigTest, ValidateAcceptsDefaultsAndEnabled) {
  VerifierConfig C;
  EXPECT_EQ(C.validate(), "") << "adaptation off is the default";
  C.Adaptive.Enabled = true;
  EXPECT_EQ(C.validate(), "");
}

TEST(AdaptiveConfigTest, ValidateRejectsBadKnobs) {
  VerifierConfig C;
  C.Adaptive.Enabled = true;

  C.Adaptive.MinBatch = 0;
  EXPECT_NE(C.validate(), "");
  C.Adaptive = AdaptiveConfig{};
  C.Adaptive.Enabled = true;

  C.Adaptive.MaxBatch = C.Adaptive.MinBatch - 1;
  EXPECT_NE(C.validate(), "");
  C.Adaptive = AdaptiveConfig{};
  C.Adaptive.Enabled = true;

  C.Adaptive.InitialBatch = C.Adaptive.MaxBatch + 1;
  EXPECT_NE(C.validate(), "") << "initial target outside [min, max]";
  C.Adaptive = AdaptiveConfig{};
  C.Adaptive.Enabled = true;

  C.Adaptive.GrowStep = 0;
  EXPECT_NE(C.validate(), "");
  C.Adaptive = AdaptiveConfig{};
  C.Adaptive.Enabled = true;

  C.Adaptive.ShrinkFactor = 0.0;
  EXPECT_NE(C.validate(), "");
  C.Adaptive.ShrinkFactor = 1.5;
  EXPECT_NE(C.validate(), "");
  C.Adaptive.ShrinkFactor = 1.0;
  EXPECT_EQ(C.validate(), "") << "1.0 (never shrink) is a valid choice";

  C.Online = false;
  EXPECT_NE(C.validate(), "") << "no live lag to react to offline";
}

TEST(AdaptiveConfigTest, ValidateRejectsEscalationWithoutBackpressure) {
  VerifierConfig C;
  C.Adaptive.Enabled = true;
  C.Adaptive.EscalatePolicy = true;
  EXPECT_NE(C.validate(), "") << "no admission policy to escalate";
  C.Backpressure.Enabled = true;
  EXPECT_EQ(C.validate(), "");
  C.Adaptive.DeescalateLagLo = C.Adaptive.EscalateLagHi;
  EXPECT_NE(C.validate(), "") << "watermarks need a dead band";
}

//===----------------------------------------------------------------------===//
// AIMD batch target (fake clock, no sleeps)
//===----------------------------------------------------------------------===//

TEST(AdaptiveControllerTest, GrowsAdditivelyUnderLagUpToMax) {
  AdaptiveConfig A = testConfig();
  AdaptiveController Ctl(A, BackpressurePolicy::BP_Block, false);
  FakeClock Clk;
  EXPECT_EQ(Ctl.batchTarget(), 256u);
  // Each paced decision with lag >= GrowLagRecords adds GrowStep.
  Ctl.observe(5000, 0, Clk.NowNs);
  EXPECT_EQ(Ctl.batchTarget(), 384u);
  Ctl.observe(5000, 0, Clk.advanceUs(A.DecisionIntervalUs));
  EXPECT_EQ(Ctl.batchTarget(), 512u);
  for (int I = 0; I < 20; ++I)
    Ctl.observe(5000, 0, Clk.advanceUs(A.DecisionIntervalUs));
  EXPECT_EQ(Ctl.batchTarget(), A.MaxBatch) << "clamped at MaxBatch";
  EXPECT_EQ(Ctl.batchTargetHwm(), A.MaxBatch);
}

TEST(AdaptiveControllerTest, ShrinksMultiplicativelyDownToMin) {
  AdaptiveConfig A = testConfig();
  AdaptiveController Ctl(A, BackpressurePolicy::BP_Block, false);
  FakeClock Clk;
  Ctl.observe(0, 0, Clk.NowNs); // 256 -> 128
  EXPECT_EQ(Ctl.batchTarget(), 128u);
  Ctl.observe(0, 0, Clk.advanceUs(A.DecisionIntervalUs)); // 128 -> 64
  EXPECT_EQ(Ctl.batchTarget(), A.MinBatch);
  Ctl.observe(0, 0, Clk.advanceUs(A.DecisionIntervalUs));
  EXPECT_EQ(Ctl.batchTarget(), A.MinBatch) << "clamped at MinBatch";
  EXPECT_EQ(Ctl.batchTargetHwm(), 256u) << "HWM remembers the start";
}

TEST(AdaptiveControllerTest, DecisionsArePacedByInterval) {
  AdaptiveConfig A = testConfig();
  AdaptiveController Ctl(A, BackpressurePolicy::BP_Block, false);
  FakeClock Clk;
  Ctl.observe(5000, 0, Clk.NowNs); // 256 -> 384, starts the interval
  // Calls inside the decision interval are lag samples, not steps: tiny
  // adaptive batches must not turn into a growth step per pump loop.
  for (int I = 0; I < 50; ++I)
    Ctl.observe(5000, 0, Clk.advanceUs(1));
  EXPECT_EQ(Ctl.batchTarget(), 384u);
  Ctl.observe(5000, 0, Clk.advanceUs(A.DecisionIntervalUs));
  EXPECT_EQ(Ctl.batchTarget(), 512u);
}

TEST(AdaptiveControllerTest, DeadZoneHoldsTheTarget) {
  AdaptiveConfig A = testConfig();
  AdaptiveController Ctl(A, BackpressurePolicy::BP_Block, false);
  FakeClock Clk;
  // Lag between the shrink and grow watermarks: no change, ever.
  for (int I = 0; I < 10; ++I)
    Ctl.observe(500, 0, Clk.advanceUs(A.DecisionIntervalUs));
  EXPECT_EQ(Ctl.batchTarget(), 256u);
}

//===----------------------------------------------------------------------===//
// Escalation ladder + hysteresis (fake clock, no sleeps)
//===----------------------------------------------------------------------===//

namespace {

AdaptiveConfig escalatingConfig() {
  AdaptiveConfig A = testConfig();
  A.EscalatePolicy = true;
  A.EscalateLagHi = 10000;
  A.DeescalateLagLo = 50;
  A.EscalateHoldUs = 1000;
  A.DeescalateHoldUs = 2000;
  return A;
}

} // namespace

TEST(AdaptiveControllerTest, LadderShapeFollowsBaseAndSpillCapability) {
  AdaptiveConfig A = escalatingConfig();
  {
    AdaptiveController C(A, BackpressurePolicy::BP_Block, true);
    EXPECT_TRUE(C.dynamicPolicy());
    EXPECT_TRUE(C.canReachSpill());
    EXPECT_TRUE(C.canReachShed());
  }
  {
    AdaptiveController C(A, BackpressurePolicy::BP_Block, false);
    EXPECT_TRUE(C.dynamicPolicy());
    EXPECT_FALSE(C.canReachSpill()) << "memory log: no spill rung";
    EXPECT_TRUE(C.canReachShed());
  }
  {
    AdaptiveController C(A, BackpressurePolicy::BP_SpillToDisk, true);
    EXPECT_TRUE(C.dynamicPolicy());
    EXPECT_FALSE(C.canReachSpill()) << "spill is the base, not a rung";
    EXPECT_TRUE(C.canReachShed());
  }
  {
    AdaptiveController C(A, BackpressurePolicy::BP_Shed, false);
    EXPECT_FALSE(C.dynamicPolicy()) << "shed has nowhere to escalate";
  }
  {
    AdaptiveConfig Off = testConfig(); // EscalatePolicy = false
    AdaptiveController C(Off, BackpressurePolicy::BP_Block, true);
    EXPECT_FALSE(C.dynamicPolicy());
  }
}

TEST(AdaptiveControllerTest, EscalatesOnlyAfterSustainedLag) {
  AdaptiveConfig A = escalatingConfig();
  AdaptiveController Ctl(A, BackpressurePolicy::BP_Block, true);
  FakeClock Clk;
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_Block);
  // Above the watermark but not yet for the hold time: no change.
  EXPECT_FALSE(Ctl.observe(20000, 10, Clk.NowNs));
  EXPECT_FALSE(Ctl.observe(20000, 20, Clk.advanceUs(500)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_Block);
  // Hold satisfied: one rung per fresh hold, never two at once.
  EXPECT_TRUE(Ctl.observe(20000, 30, Clk.advanceUs(600)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_SpillToDisk);
  EXPECT_FALSE(Ctl.observe(20000, 40, Clk.advanceUs(500)))
      << "the next rung needs a fresh full hold";
  EXPECT_TRUE(Ctl.observe(20000, 50, Clk.advanceUs(600)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_Shed);
  EXPECT_FALSE(Ctl.observe(20000, 60, Clk.advanceUs(5000)))
      << "top of the ladder: nowhere further";
  EXPECT_EQ(Ctl.escalations(), 2u);
  ASSERT_EQ(Ctl.transitions().size(), 2u);
  EXPECT_EQ(Ctl.transitions()[0].str(), "block->spill");
  EXPECT_EQ(Ctl.transitions()[1].str(), "spill->shed");
  EXPECT_EQ(Ctl.transitions()[1].Seq, 50u);
  EXPECT_TRUE(Ctl.transitions()[1].Escalation);
}

TEST(AdaptiveControllerTest, LagDipResetsTheEscalationHold) {
  AdaptiveConfig A = escalatingConfig();
  AdaptiveController Ctl(A, BackpressurePolicy::BP_Block, true);
  FakeClock Clk;
  EXPECT_FALSE(Ctl.observe(20000, 0, Clk.NowNs));
  // A dip into the dead zone resets the hold timer...
  EXPECT_FALSE(Ctl.observe(500, 0, Clk.advanceUs(900)));
  // ...so reaching the original deadline no longer escalates.
  EXPECT_FALSE(Ctl.observe(20000, 0, Clk.advanceUs(200)));
  EXPECT_FALSE(Ctl.observe(20000, 0, Clk.advanceUs(900)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_Block);
  // The fresh hold, uninterrupted, does.
  EXPECT_TRUE(Ctl.observe(20000, 0, Clk.advanceUs(200)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_SpillToDisk);
}

TEST(AdaptiveControllerTest, DeescalatesWithItsOwnHoldAndHysteresis) {
  AdaptiveConfig A = escalatingConfig();
  AdaptiveController Ctl(A, BackpressurePolicy::BP_Block, true);
  FakeClock Clk;
  // Walk up to shed.
  Ctl.observe(20000, 0, Clk.NowNs);
  Ctl.observe(20000, 0, Clk.advanceUs(1100));
  Ctl.observe(20000, 0, Clk.advanceUs(1100));
  ASSERT_EQ(Ctl.policy(), BackpressurePolicy::BP_Shed);
  // Lag drained below the low watermark, but the de-escalation hold
  // (2000 us) is longer than the escalation hold — no flap.
  EXPECT_FALSE(Ctl.observe(10, 0, Clk.advanceUs(100)));
  EXPECT_FALSE(Ctl.observe(10, 0, Clk.advanceUs(1900)));
  EXPECT_TRUE(Ctl.observe(10, 100, Clk.advanceUs(200)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_SpillToDisk);
  // The dead zone holds the current rung in both directions.
  for (int I = 0; I < 10; ++I)
    EXPECT_FALSE(Ctl.observe(5000, 0, Clk.advanceUs(1000)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_SpillToDisk);
  // Drain again: back to the base policy, fully accounted.
  EXPECT_FALSE(Ctl.observe(10, 0, Clk.advanceUs(100)));
  EXPECT_TRUE(Ctl.observe(10, 0, Clk.advanceUs(2100)));
  EXPECT_EQ(Ctl.policy(), BackpressurePolicy::BP_Block);
  EXPECT_EQ(Ctl.escalations(), 2u);
  EXPECT_EQ(Ctl.deescalations(), 2u);
  ASSERT_EQ(Ctl.transitions().size(), 4u);
  EXPECT_FALSE(Ctl.transitions()[3].Escalation);
  EXPECT_EQ(Ctl.transitions()[3].str(), "spill->block");
}

//===----------------------------------------------------------------------===//
// End-to-end: throttled checker, adaptation on
//===----------------------------------------------------------------------===//

namespace {

void spinFor(std::chrono::nanoseconds D) {
  auto Until = std::chrono::steady_clock::now() + D;
  while (std::chrono::steady_clock::now() < Until)
    ;
}

/// Integer register with an optional per-spec-step busy-wait (same shape
/// as the BackpressureTest spec) so producers outrun the checker.
class ThrottledRegisterSpec : public Spec {
public:
  explicit ThrottledRegisterSpec(unsigned ThrottleUs = 0)
      : SetM(name("ad.Set")), GetM(name("ad.Get")), State(Value(0)),
        ThrottleUs(ThrottleUs) {}

  bool isObserver(Name Method) const override { return Method == GetM; }

  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &) override {
    throttle();
    if (Method != SetM || Args.size() != 1 || !Ret.isBool() ||
        !Ret.asBool())
      return false;
    State = Args[0];
    return true;
  }

  bool returnAllowed(Name Method, const ValueList &,
                     const Value &Ret) const override {
    throttle();
    return Method == GetM && Ret == State;
  }

  void buildView(View &Out) const override { Out.clear(); }

  Name SetM, GetM;
  Value State;

private:
  void throttle() const {
    if (ThrottleUs)
      spinFor(std::chrono::microseconds(ThrottleUs));
  }
  unsigned ThrottleUs;
};

/// Appends \p Execs correct executions (one Set + one Get each, 5
/// records), optionally seeding one mutator violation, then finishes.
VerifierReport runThrottled(VerifierConfig C, unsigned ThrottleUs,
                            int Execs, bool SeedViolation = false) {
  ThrottledRegisterSpec Script; // same method names, for the producer
  Verifier V(std::make_unique<ThrottledRegisterSpec>(ThrottleUs), nullptr,
             std::move(C));
  V.start();
  LogWriter &W = V.log().writer();
  for (int I = 0; I < Execs; ++I) {
    W.append(Action::call(1, Script.SetM, {Value(I)}));
    W.append(Action::commit(1));
    W.append(Action::ret(1, Script.SetM, Value(true)));
    W.append(Action::call(1, Script.GetM, {}));
    W.append(Action::ret(1, Script.GetM, Value(I)));
  }
  if (SeedViolation) {
    W.append(Action::call(1, Script.SetM, {Value(-1)}));
    W.append(Action::commit(1));
    W.append(Action::ret(1, Script.SetM, Value(false)));
  }
  return V.finish();
}

} // namespace

TEST(AdaptiveVerifierTest, PoolAdmissionNeverOvershootsTheBound) {
  // Regression: pool admission used to be batch-granular (wait for room,
  // then add the whole batch), overshooting MaxPendingRecords by up to a
  // pump batch — with adaptive sizing, by up to MaxBatch. Admission is
  // now sliced at the free room, so the bound holds exactly.
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.CheckerThreads = 2;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 64;
  C.Adaptive.Enabled = true; // batches grow well past the bound
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/1, /*Execs=*/3000);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 6000u);
  EXPECT_LE(R.Backpressure.PendingRecordsHwm, 64u)
      << "the bound must hold exactly, not modulo one batch";
  EXPECT_GE(R.Adaptive.BatchTargetHwm, 256u);
}

TEST(AdaptiveVerifierTest, BatchTargetGrowsUnderBacklogAndReportsIt) {
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.Adaptive.Enabled = true;
  C.Adaptive.GrowLagRecords = 256;
  C.Adaptive.DecisionIntervalUs = 50;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/1, /*Execs=*/4000);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_TRUE(R.Adaptive.Enabled);
  EXPECT_GT(R.Adaptive.BatchTargetHwm, 256u)
      << "a 1us/step checker must fall behind and grow the batch";
  EXPECT_NE(R.str().find("adaptive:"), std::string::npos) << R.str();
  EXPECT_TRUE(jsonValid(R.json())) << R.json();
  EXPECT_NE(R.json().find("\"adaptive\""), std::string::npos);
}

TEST(AdaptiveVerifierTest, EscalationFiresAndVerdictsMatchUnbounded) {
  // Unbounded static run: the ground truth (one seeded mutator
  // violation).
  VerifierConfig U;
  U.Checker.Mode = CheckMode::CM_IORefinement;
  VerifierReport A = runThrottled(U, /*ThrottleUs=*/0, /*Execs=*/2000,
                                  /*SeedViolation=*/true);
  ASSERT_EQ(A.Violations.size(), 1u);

  // Bounded adaptive run with a throttled checker: the lag crosses the
  // escalate watermark (the block bound caps it at MaxPendingRecords, so
  // the watermark sits below that), policy escalates block -> shed
  // (memory log: no spill rung), observers are shed — but mutators never
  // are, so the seeded violation survives with the same verdict.
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 512;
  C.Adaptive.Enabled = true;
  C.Adaptive.EscalatePolicy = true;
  C.Adaptive.EscalateLagHi = 256;
  C.Adaptive.DeescalateLagLo = 8;
  C.Adaptive.EscalateHoldUs = 200;
  C.Adaptive.DeescalateHoldUs = 100000; // stay escalated once there
  VerifierReport B = runThrottled(C, /*ThrottleUs=*/2, /*Execs=*/2000,
                                  /*SeedViolation=*/true);
  EXPECT_GE(B.Adaptive.Escalations, 1u) << B.str();
  ASSERT_GE(B.Adaptive.Transitions.size(), 1u);
  EXPECT_EQ(B.Adaptive.Transitions[0].str(), "block->shed");
  ASSERT_EQ(B.Violations.size(), 1u)
      << "the seeded violation must survive escalation: " << B.str();
  EXPECT_EQ(B.Violations[0].Kind, A.Violations[0].Kind);
  EXPECT_EQ(B.Violations[0].Seq, A.Violations[0].Seq);
  EXPECT_TRUE(jsonValid(B.json())) << B.json();
  EXPECT_NE(B.json().find("\"transitions\""), std::string::npos);
}

TEST(AdaptiveVerifierTest, AdaptationOffIsBehaviorallyUnchanged) {
  // The same bounded workload with and without the Adaptive struct
  // defaulted must agree on everything the report can see.
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 64;
  VerifierReport R = runThrottled(C, /*ThrottleUs=*/0, /*Execs=*/1000);
  EXPECT_TRUE(R.ok());
  EXPECT_FALSE(R.Adaptive.Enabled);
  EXPECT_EQ(R.Adaptive.Transitions.size(), 0u);
  EXPECT_EQ(R.json().find("\"adaptive\""), std::string::npos)
      << "static runs keep their report schema";
  EXPECT_EQ(R.str().find("adaptive:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Multi-producer stress (TSan suite): cells read across threads
//===----------------------------------------------------------------------===//

TEST(AdaptiveStressTest, BlockedProducersNeverDuplicateSpillReadRecords) {
  // Regression: with a block-base dynamic ladder the file-backed log is
  // spill-capable, so the reader fills queue gaps from disk. A record
  // blocked on queue space is already in the file; a fast reader can
  // spill-read it and advance the delivery frontier past it before the
  // record enters the queue. Popping that stale queue entry used to
  // rewind the frontier, delivering the next record twice (duplicate
  // commits, bracket-state violations). The frontier is monotone now;
  // this drives the overlap with two blocked producers and an
  // unthrottled checker.
  ThrottledRegisterSpec Script;
  std::string Path =
      std::string(::testing::TempDir()) + "vyrd-adaptive-monotone-" +
      std::to_string(::getpid()) + ".bin";
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.LogFilePath = Path;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 128;
  C.Adaptive.Enabled = true;
  C.Adaptive.EscalatePolicy = true;
  // The ladder must never move: every record must be checked, none shed
  // or left to spill. Lag also counts records in the shard rings, the
  // reorder ring and the pump batch, which the queue bound does not cap
  // (a descheduled producer lets the reorder ring grow), so only a
  // threshold above the run's 12003 records holds on every schedule.
  C.Adaptive.EscalateLagHi = 1 << 14;
  Verifier V(std::make_unique<ThrottledRegisterSpec>(/*ThrottleUs=*/0),
             nullptr, std::move(C));
  V.start();
  {
    LogWriter &W = V.log().writer();
    W.append(Action::call(9, Script.SetM, {Value(7)}));
    W.append(Action::commit(9));
    W.append(Action::ret(9, Script.SetM, Value(true)));
  }
  constexpr int PerThread = 3000;
  std::vector<std::thread> Producers;
  for (int T = 0; T < 2; ++T)
    Producers.emplace_back([&, T] {
      LogWriter &W = V.log().writer();
      ThreadId Tid = static_cast<ThreadId>(T + 1);
      for (int I = 0; I < PerThread; ++I) {
        W.append(Action::call(Tid, Script.GetM, {}));
        W.append(Action::ret(Tid, Script.GetM, Value(7)));
      }
    });
  for (std::thread &P : Producers)
    P.join();
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_EQ(R.Stats.ObserversChecked, 2u * PerThread) << R.str();
  EXPECT_EQ(R.Stats.MethodsChecked, 2u * PerThread + 1) << R.str();
  EXPECT_EQ(R.Backpressure.ShedRecords, 0u);
  EXPECT_TRUE(R.Adaptive.Transitions.empty()) << R.str();
  std::remove(Path.c_str());
}

TEST(AdaptiveStressTest, FourProducersWithAdaptationAndEscalation) {
  // Four producer threads through the buffered backend's shard rings, a
  // throttled checker, adaptation and escalation armed: the policy cell
  // is written by the pump and read by the flusher's admission, the
  // batch cell by the pump and the flusher's emit quantum. One Set(7)
  // first, then concurrent Get()==7 observers — always correct, from
  // any interleaving.
  ThrottledRegisterSpec Script;
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  C.ShardCapacity = 256;
  C.Backpressure.Enabled = true;
  C.Backpressure.MaxPendingRecords = 512;
  C.Adaptive.Enabled = true;
  C.Adaptive.EscalatePolicy = true;
  C.Adaptive.EscalateLagHi = 384;
  C.Adaptive.DeescalateLagLo = 16;
  C.Adaptive.EscalateHoldUs = 200;
  C.Adaptive.DeescalateHoldUs = 500;
  Verifier V(std::make_unique<ThrottledRegisterSpec>(/*ThrottleUs=*/1),
             nullptr, std::move(C));
  V.start();
  {
    LogWriter &W = V.log().writer();
    W.append(Action::call(9, Script.SetM, {Value(7)}));
    W.append(Action::commit(9));
    W.append(Action::ret(9, Script.SetM, Value(true)));
  }
  constexpr int PerThread = 2000;
  std::vector<std::thread> Producers;
  for (int T = 0; T < 4; ++T)
    Producers.emplace_back([&, T] {
      LogWriter &W = V.log().writer();
      ThreadId Tid = static_cast<ThreadId>(T + 1);
      for (int I = 0; I < PerThread; ++I) {
        W.append(Action::call(Tid, Script.GetM, {}));
        W.append(Action::ret(Tid, Script.GetM, Value(7)));
      }
    });
  for (std::thread &P : Producers)
    P.join();
  VerifierReport R = V.finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_TRUE(R.Adaptive.Enabled);
  // Checked + shed must account for every appended observer execution.
  EXPECT_EQ(R.Stats.ObserversChecked + R.Backpressure.ShedRecords / 2,
            4u * PerThread)
      << R.str();
}
