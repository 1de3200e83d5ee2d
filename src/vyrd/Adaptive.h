//===- Adaptive.h - Self-tuning pipeline controller -------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-loop controller for the verification pipeline: drives the pump's
/// batch target and (optionally) the active backpressure policy off the
/// live checker lag, AIMD / congestion-control style. The pipeline's
/// latency/throughput trade-off is a product property for an online
/// checker — a fixed batch either wastes sync cost under backlog or adds
/// detection latency when the checker keeps up, and a static admission
/// policy either blocks real traffic or sheds records it did not have to.
/// The controller resolves both at runtime:
///
///   * Batch sizing: while checker lag is above AdaptiveConfig's grow
///     watermark the per-loop batch target grows additively toward
///     MaxBatch (amortizing one wakeup + lock round trip over more
///     records); when lag falls below the shrink watermark it shrinks
///     multiplicatively toward MinBatch (restoring detection latency).
///
///   * Policy escalation: sustained lag above EscalateLagHi walks the
///     escalation ladder one rung at a time — BP_Block → BP_SpillToDisk
///     (file-backed logs) → BP_Shed — and sustained lag below
///     DeescalateLagLo walks it back down. Both directions require the
///     condition to hold for a configurable time (hysteresis), so a
///     single bursty batch cannot flap the policy. Every transition is
///     counted in telemetry, stamped into the Perfetto trace and listed
///     in the VerifierReport.
///
/// The controller itself is passive and deterministic: the pump calls
/// observe() with the current lag and a caller-supplied clock, so unit
/// tests drive it with fake nanoseconds and no sleeps. The decisions are
/// published through plain relaxed atomics (batchTarget, the policy
/// cell) that the log backends and the checker-pool admission read on
/// their own threads.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_ADAPTIVE_H
#define VYRD_ADAPTIVE_H

#include "vyrd/Backpressure.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vyrd {

class Telemetry;

/// Knobs for the self-tuning pipeline (VerifierConfig::Adaptive). The
/// defaults keep adaptation off; enabling it with default knobs
/// reproduces the historical fixed batch (256) as the starting point.
struct AdaptiveConfig {
  /// Master switch. Off = the pump uses the fixed historical batch of
  /// 256 records and the static BackpressureConfig::Policy, bit-identical
  /// to previous releases.
  bool Enabled = false;

  /// Batch-target bounds and steps. The target starts at InitialBatch,
  /// grows by GrowStep (additive) toward MaxBatch while lag is at or
  /// above GrowLagRecords, and shrinks by ShrinkFactor (multiplicative)
  /// toward MinBatch while lag is at or below ShrinkLagRecords.
  size_t MinBatch = 64;
  size_t InitialBatch = 256;
  size_t MaxBatch = 8192;
  size_t GrowStep = 256;
  double ShrinkFactor = 0.5;
  uint64_t GrowLagRecords = 1024;
  uint64_t ShrinkLagRecords = 128;
  /// Minimum time between batch-target adjustments. Lag is sampled every
  /// pump loop; this keeps the AIMD steps paced by time, not by how
  /// small the batches happen to be.
  uint64_t DecisionIntervalUs = 200;

  /// Escalation master switch (requires Backpressure.Enabled). When on,
  /// the active admission policy starts at BackpressureConfig::Policy
  /// and escalates/de-escalates along the ladder described above.
  bool EscalatePolicy = false;
  /// Lag watermarks (records) with hold times: lag must stay at or above
  /// EscalateLagHi for EscalateHoldUs before each escalation, and at or
  /// below DeescalateLagLo for DeescalateHoldUs before each
  /// de-escalation. Lag between the watermarks holds the current policy.
  uint64_t EscalateLagHi = 1 << 14;
  uint64_t DeescalateLagLo = 1 << 10;
  uint64_t EscalateHoldUs = 2000;
  uint64_t DeescalateHoldUs = 5000;
};

/// The controller instance owned by the Verifier. Construction fixes the
/// escalation ladder from the base policy and the log's capabilities;
/// observe() runs on the pump thread only, everything else is readable
/// from any thread.
class AdaptiveController {
public:
  /// One policy change, in the order it happened.
  struct Transition {
    uint64_t Seq;              ///< log frontier when the change fired
    uint64_t LagRecords;       ///< the lag that triggered it
    BackpressurePolicy From;
    BackpressurePolicy To;
    bool Escalation;           ///< false = de-escalation

    /// "block->spill" — the form the report and CI validation use.
    std::string str() const;
  };

  /// \p Base is the configured static policy (the ladder's bottom rung);
  /// \p CanSpill says whether the log backend can serve the
  /// BP_SpillToDisk rung (file-backed with a retained tail). Ladders:
  /// Block → Spill → Shed (CanSpill), Block → Shed (memory-only),
  /// Spill → Shed, and Shed alone (nothing to escalate to).
  AdaptiveController(const AdaptiveConfig &C, BackpressurePolicy Base,
                     bool CanSpill);

  /// Publishes transitions/targets to these gauges and counters (null =
  /// none). Call before the pipeline starts.
  void setTelemetry(Telemetry *T) { Telem = T; }

  /// Current batch target for the pump loop and the log's merge-round
  /// emit quantum. Relaxed: any thread.
  size_t batchTarget() const {
    return Target.load(std::memory_order_relaxed);
  }

  /// Currently active admission policy. Relaxed: any thread.
  BackpressurePolicy policy() const {
    return static_cast<BackpressurePolicy>(
        Policy.load(std::memory_order_relaxed));
  }

  /// The raw cells the log backends subscribe to (Log::setDynamicPolicy /
  /// Log::setBatchTargetHint). Stable for the controller's lifetime.
  const std::atomic<uint8_t> &policyCell() const { return Policy; }
  const std::atomic<size_t> &batchCell() const { return Target; }

  /// True when escalation is on and the ladder has anywhere to go — the
  /// condition under which the Verifier installs the policy cell and the
  /// shed classifier.
  bool dynamicPolicy() const { return Escalate && Ladder.size() > 1; }
  /// True when the ladder contains BP_Shed above the base rung.
  bool canReachShed() const;
  /// True when the ladder contains BP_SpillToDisk above the base rung.
  bool canReachSpill() const;

  /// One control step, called from the pump thread after each consumed
  /// batch. \p LagRecords is the append frontier minus the consumed
  /// frontier; \p Seq is the consumed frontier (for transition
  /// attribution); \p NowNanos is a monotonic clock (injectable — tests
  /// pass fake time). \returns true when this step changed the active
  /// policy (the caller emits the trace instant).
  bool observe(uint64_t LagRecords, uint64_t Seq, uint64_t NowNanos);

  /// The transitions so far, oldest first. Any thread.
  std::vector<Transition> transitions() const;
  /// The last transition (meaningful right after observe() returned
  /// true). Pump thread only.
  Transition lastTransition() const;

  uint64_t escalations() const {
    return Escalations.load(std::memory_order_relaxed);
  }
  uint64_t deescalations() const {
    return Deescalations.load(std::memory_order_relaxed);
  }
  /// Largest batch target ever published (pump thread writes, any reads).
  size_t batchTargetHwm() const {
    return TargetHwm.load(std::memory_order_relaxed);
  }

private:
  void publishPolicy(BackpressurePolicy P);

  AdaptiveConfig C;
  Telemetry *Telem = nullptr;
  bool Escalate = false;
  /// The escalation ladder, mildest first. Level indexes it.
  std::vector<BackpressurePolicy> Ladder;
  size_t Level = 0; // pump thread only

  std::atomic<size_t> Target;
  std::atomic<size_t> TargetHwm;
  std::atomic<uint8_t> Policy;
  std::atomic<uint64_t> Escalations{0};
  std::atomic<uint64_t> Deescalations{0};

  /// AIMD pacing and hysteresis state (pump thread only).
  uint64_t LastDecisionNs = 0;
  uint64_t AboveSinceNs = 0; ///< 0 = lag not currently >= EscalateLagHi
  uint64_t BelowSinceNs = 0; ///< 0 = lag not currently <= DeescalateLagLo

  mutable std::mutex TM;
  std::vector<Transition> Trans; // guarded by TM
};

} // namespace vyrd

#endif // VYRD_ADAPTIVE_H
