//===- bench_backpressure.cpp - Bounded-pipeline soak ----------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what the bounded pipeline (docs/ARCHITECTURE.md, "Bounded
// pipeline & backpressure") costs and verifies what it promises, with a
// deliberately throttled checker so producers genuinely outrun it:
//
//  * unbounded baseline: append throughput with the historical unbounded
//    queue (memory grows with the backlog);
//  * BP_Block soak: append throughput plus the p99 append latency once
//    the producer absorbs the checker's pace, and the hard invariant
//    pending-HWM <= MaxPendingRecords;
//  * fixed-256: the bounded-block soak at the pump's fixed 256-record
//    batch, with how often the producer blocked and its p99 append.
//
// Full mode soaks >= 10M records per bounded run; --quick shrinks
// everything for CI. Invariant failures exit non-zero so CI notices.
// JSON rows (--json) feed tools/check_bench_baseline.py.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "vyrd/Verifier.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <string>
#include <vector>

using namespace vyrd;
using namespace vyrd::bench;

namespace {

unsigned SoakExecs = 2000000;   // 5 records each: the >= 10M-record soak
unsigned CompareExecs = 100000; // unbounded-vs-bounded verdict comparison
constexpr unsigned SeededViolations = 3;
constexpr uint64_t PendingBound = 1024;

void spinFor(std::chrono::nanoseconds D) {
  auto Until = std::chrono::steady_clock::now() + D;
  while (std::chrono::steady_clock::now() < Until)
    ;
}

/// Integer register: Set(x) -> true mutates, Get() -> x observes. The
/// optional busy-wait per spec step is the "slow checker" of the soak;
/// the optional HoldUntil holds the first spec call until it returns
/// true.
class ThrottledRegisterSpec : public Spec {
public:
  explicit ThrottledRegisterSpec(unsigned ThrottleUs = 0)
      : SetM(internName("bp.Set")), GetM(internName("bp.Get")),
        State(Value(0)), ThrottleUs(ThrottleUs) {}

  bool isObserver(Name Method) const override { return Method == GetM; }

  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &) override {
    throttle();
    if (Method != SetM || Args.size() != 1 || !Ret.isBool() || !Ret.asBool())
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
  mutable std::function<bool()> HoldUntil;

private:
  void throttle() const {
    if (HoldUntil) {
      while (!HoldUntil())
        std::this_thread::yield();
      HoldUntil = nullptr;
    }
    if (ThrottleUs)
      spinFor(std::chrono::microseconds(ThrottleUs));
  }
  unsigned ThrottleUs;
};

struct RunResult {
  VerifierReport Report;
  double AppendSeconds = 0; // producer wall time in the append loop
  double WallSeconds = 0;   // start() .. finish()
  uint64_t Records = 0;
  uint64_t P99AppendNs = 0; // sampled individual-append p99
};

/// Drives \p Execs Set/Get executions through a fresh Verifier, seeding
/// SeededViolations impossible mutators at even spacings. Every 8th
/// append is individually timed for the latency distribution. With
/// \p HoldUntilBlocked, the checker's first spec call waits until an
/// append has met the log's bound, so the bound engages whatever the
/// producer's pace (on a shared core the producer alone may never
/// outrun a 1us/step checker by a whole merge round).
RunResult run(VerifierConfig C, unsigned ThrottleUs, unsigned Execs,
              bool HoldUntilBlocked = false) {
  using Clock = std::chrono::steady_clock;
  RunResult R;
  ThrottledRegisterSpec Script; // producer-side method names
  auto Checked = std::make_unique<ThrottledRegisterSpec>(ThrottleUs);
  ThrottledRegisterSpec &Held = *Checked;
  Verifier V(std::move(Checked), nullptr, std::move(C));
  if (HoldUntilBlocked) {
    // A Verifier's log is a BufferedLog.
    const auto &L = static_cast<const BufferedLog &>(V.log());
    Held.HoldUntil = [&L] {
      return L.backpressureStats().BlockedAppends > 0;
    };
  }
  double W0 = wallSeconds();
  V.start();
  LogWriter &W = V.log().writer();
  std::vector<uint64_t> Samples;
  Samples.reserve(Execs / 2 + 16);
  unsigned SeedEvery = Execs / (SeededViolations + 1);
  uint64_t Appended = 0;
  auto timedAppend = [&](Action A) {
    if (++Appended % 8) {
      W.append(std::move(A));
      return;
    }
    auto T0 = Clock::now();
    W.append(std::move(A));
    Samples.push_back(static_cast<uint64_t>(
        std::chrono::nanoseconds(Clock::now() - T0).count()));
  };
  double A0 = wallSeconds();
  for (unsigned I = 0; I < Execs; ++I) {
    int64_t K = static_cast<int64_t>(I);
    timedAppend(Action::call(1, Script.SetM, {Value(K)}));
    timedAppend(Action::commit(1));
    timedAppend(Action::ret(1, Script.SetM, Value(true)));
    timedAppend(Action::call(1, Script.GetM, {}));
    timedAppend(Action::ret(1, Script.GetM, Value(K)));
    if (SeedEvery && (I + 1) % SeedEvery == 0 &&
        (I + 1) / SeedEvery <= SeededViolations) {
      // A mutator the spec cannot execute: Set that "returns" false. It
      // leaves the register state untouched, so later Gets stay correct.
      timedAppend(Action::call(1, Script.SetM, {Value(-1)}));
      timedAppend(Action::commit(1));
      timedAppend(Action::ret(1, Script.SetM, Value(false)));
    }
  }
  R.AppendSeconds = wallSeconds() - A0;
  R.Records = Appended;
  R.Report = V.finish();
  R.WallSeconds = wallSeconds() - W0;
  if (!Samples.empty()) {
    std::sort(Samples.begin(), Samples.end());
    R.P99AppendNs = Samples[Samples.size() * 99 / 100];
  }
  return R;
}

/// Hard invariant: print and exit non-zero on failure, so the soak gates
/// CI rather than decorating it.
void require(bool Ok, const char *What) {
  if (Ok)
    return;
  std::fprintf(stderr, "INVARIANT FAILED: %s\n", What);
  std::exit(1);
}

void requireSeededViolations(const VerifierReport &R, const char *Config) {
  if (R.Violations.size() == SeededViolations &&
      std::all_of(R.Violations.begin(), R.Violations.end(),
                  [](const Violation &V) {
                    return V.Kind == ViolationKind::VK_MutatorMismatch;
                  }))
    return;
  std::fprintf(stderr,
               "INVARIANT FAILED: %s flagged %zu violation(s), expected "
               "%u seeded mutator mismatches\n%s",
               Config, R.Violations.size(), SeededViolations,
               R.str().c_str());
  std::exit(1);
}

double appendPerSec(const RunResult &R) {
  return R.AppendSeconds > 0 ? double(R.Records) / R.AppendSeconds : 0;
}

double nsPerAppend(const RunResult &R) {
  return R.Records ? R.AppendSeconds * 1e9 / double(R.Records) : 0;
}

VerifierConfig baseConfig() {
  VerifierConfig C;
  C.Checker.Mode = CheckMode::CM_IORefinement;
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  if (Args.Quick) {
    SoakExecs = 30000;
    CompareExecs = 10000;
  }
  BenchJson BJ("backpressure", Args.JsonPath);
  char Extra[160];

  std::printf("Bounded-pipeline soak: %u execs (%u records) per run, "
              "1us/step checker throttle, bound %llu records\n\n",
              SoakExecs, SoakExecs * 5 + SeededViolations * 3,
              static_cast<unsigned long long>(PendingBound));
  std::printf("%-12s %12s %12s %12s %12s\n", "config", "append M/s",
              "p99 ns", "pending HWM", "wall s");
  hr();

  // Unbounded baseline at a memory-safe size: the backlog this
  // configuration pins is exactly what the bound exists to avoid, so it
  // does not get the full soak.
  RunResult Unbounded = run(baseConfig(), /*ThrottleUs=*/1, CompareExecs);
  requireSeededViolations(Unbounded.Report, "unbounded");
  std::printf("%-12s %12.2f %12llu %12s %12.2f\n", "unbounded",
              appendPerSec(Unbounded) / 1e6,
              static_cast<unsigned long long>(Unbounded.P99AppendNs), "-",
              Unbounded.WallSeconds);
  std::snprintf(Extra, sizeof(Extra), "{\"records\":%llu}",
                static_cast<unsigned long long>(Unbounded.Records));
  BJ.row("unbounded", 1, nsPerAppend(Unbounded), appendPerSec(Unbounded),
         Extra);

  // BP_Block soak: the producer is paced to the checker; pending stays
  // under the bound by construction, and we verify it did.
  {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = PendingBound;
    RunResult R = run(std::move(C), /*ThrottleUs=*/1, SoakExecs,
                      /*HoldUntilBlocked=*/true);
    requireSeededViolations(R.Report, "block");
    require(R.Report.Backpressure.PendingRecordsHwm <= PendingBound,
            "block: pending HWM exceeded MaxPendingRecords");
    require(R.Report.Backpressure.BlockedAppends > 0,
            "block: a throttled checker never engaged the bound");
    std::printf("%-12s %12.2f %12llu %12llu %12.2f\n", "block",
                appendPerSec(R) / 1e6,
                static_cast<unsigned long long>(R.P99AppendNs),
                static_cast<unsigned long long>(
                    R.Report.Backpressure.PendingRecordsHwm),
                R.WallSeconds);
    std::snprintf(
        Extra, sizeof(Extra),
        "{\"blocked_appends\":%llu,\"blocked_p99_ns\":%llu,"
        "\"pending_hwm\":%llu}",
        static_cast<unsigned long long>(R.Report.Backpressure.BlockedAppends),
        static_cast<unsigned long long>(R.P99AppendNs),
        static_cast<unsigned long long>(
            R.Report.Backpressure.PendingRecordsHwm));
    BJ.row("block", 1, nsPerAppend(R), appendPerSec(R), Extra);
  }

  hr();

  // Bounded-vs-unbounded verdict equivalence at the comparison size:
  // BP_Block must change pacing, never coverage.
  {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = 64;
    RunResult R = run(std::move(C), /*ThrottleUs=*/1, CompareExecs);
    requireSeededViolations(R.Report, "block-compare");
    require(R.Report.Stats.MethodsChecked ==
                Unbounded.Report.Stats.MethodsChecked,
            "block: checked-method count diverged from the unbounded run");
    require(R.Report.LogRecords == Unbounded.Report.LogRecords,
            "block: record count diverged from the unbounded run");
  }

  // The fixed 256-record pump batch under the bounded-block soak, at the
  // checker's pace: the producer's sync cost (how often it blocks and how
  // long the p99 append takes). check_bench_baseline.py gates the row.
  std::printf("\nFixed-256 pump batch (%u execs, 1us/step throttle, bound "
              "%llu)\n\n",
              SoakExecs, static_cast<unsigned long long>(PendingBound));
  std::printf("%-12s %12s %12s %12s %14s\n", "config", "append M/s",
              "p99 ns", "pending HWM", "blocked appends");
  hr();
  {
    VerifierConfig C = baseConfig();
    C.Backpressure.Enabled = true;
    C.Backpressure.MaxPendingRecords = PendingBound;
    RunResult R = run(std::move(C), /*ThrottleUs=*/1, SoakExecs);
    requireSeededViolations(R.Report, "fixed-256");
    require(R.Report.Backpressure.PendingRecordsHwm <= PendingBound,
            "fixed-256: pending HWM exceeded MaxPendingRecords");
    std::printf("%-12s %12.2f %12llu %12llu %14llu\n", "fixed-256",
                appendPerSec(R) / 1e6,
                static_cast<unsigned long long>(R.P99AppendNs),
                static_cast<unsigned long long>(
                    R.Report.Backpressure.PendingRecordsHwm),
                static_cast<unsigned long long>(
                    R.Report.Backpressure.BlockedAppends));
    char Buf[160];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"blocked_appends\":%llu,\"blocked_p99_ns\":%llu,"
        "\"pending_hwm\":%llu}",
        static_cast<unsigned long long>(
            R.Report.Backpressure.BlockedAppends),
        static_cast<unsigned long long>(R.P99AppendNs),
        static_cast<unsigned long long>(
            R.Report.Backpressure.PendingRecordsHwm));
    BJ.row("fixed-256", 1, nsPerAppend(R), appendPerSec(R), Buf);
  }
  hr();
  std::printf("\nall bounded-pipeline invariants held\n");
  return BJ.write() ? 0 : 1;
}
