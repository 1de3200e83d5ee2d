//===- programs.h - Programs, probe, bench logs and decorators --*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bench-owned pieces that sit at VYRD's public boundaries:
///
///  * Program: one workload family (the java.util.Hashtable model, or the
///    composite multiset + cache + B-link tree + queue), instantiable over
///    any hooks so the same seeded operations run bare, into a discarding
///    log, into a timed log, or into a Verifier.
///  * DiscardLog / TimedLog: Log implementations the hooks can be bound
///    to. TimedLog forwards to an inner log and times each append of the
///    inner per-thread writer.
///  * ProbeSpec: an I/O-refinement spec registered beside the program's
///    objects; its applyMutator stamps when each probe operation was
///    checked, which gives append-to-checked latency from outside.
///  * TimingSpec / TimingReplayer: forwarding decorators that time every
///    spec and replayer call of a checker.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_PERFBENCH_PROGRAMS_H
#define VYRD_PERFBENCH_PROGRAMS_H

#include "perfbench.h"

#include "harness/Scenarios.h"
#include "javalib/SyncHashtable.h"
#include "vyrd/Epoch.h"
#include "vyrd/Verifier.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// A live instance of a program whose objects log through given hooks.
class ProgramInstance {
public:
  virtual ~ProgramInstance();
  /// Runs \p Ops seeded operations as load thread \p Thread (closed loop).
  /// The operation sequence is a pure function of (Seed, Thread, Ops).
  virtual void runOps(unsigned Thread, uint64_t Seed, uint64_t Ops) = 0;
};

class Program {
public:
  virtual ~Program();
  /// Object names in ObjectId order (the registration order).
  virtual std::vector<std::string> objects() const = 0;
  /// Rebuilds object \p Id's spec + replayer (view refinement).
  virtual vyrd::PipelineFactory pipeline() const = 0;
  /// A fresh instance whose object i logs through \p H[i] (default
  /// Hooks() runs it bare).
  virtual std::unique_ptr<ProgramInstance>
  instantiate(const std::vector<vyrd::Hooks> &H) const = 0;
  /// The harness scenario of the same program (recordings, chains).
  virtual vyrd::harness::Scenario
  scenario(const vyrd::harness::ScenarioOptions &O) const = 0;
};

std::unique_ptr<Program> makeHashtableProgram();
std::unique_ptr<Program> makeCompositeProgram();

/// One java.util.Hashtable operation of the seeded mix (the same mix as
/// the harness scenario: put / putIfAbsent / remove / get / size).
struct HtOp {
  uint8_t Kind = 0;
  int64_t Key = 0;
  int64_t Val = 0;
};

/// The seeded operation sequence of one load thread.
class HtOpStream {
public:
  HtOpStream(uint64_t Seed, unsigned Thread, uint64_t TotalOps);
  HtOp next();

private:
  vyrd::harness::KeyPool Pool;
  vyrd::harness::Rng R;
  uint64_t Total;
  uint64_t Issued = 0;
};

void applyHtOp(vyrd::javalib::SyncHashtable &T, const HtOp &Op);

//===----------------------------------------------------------------------===//
// Bench logs
//===----------------------------------------------------------------------===//

/// Counts appends and drops the records: the hooks' own cost, isolated.
class DiscardLog final : public vyrd::Log {
public:
  uint64_t append(vyrd::Action A) override;
  void close() override {}
  bool next(vyrd::Action &) override { return false; }
  bool tryNext(vyrd::Action &, bool &End) override {
    End = true;
    return false;
  }
  uint64_t appendCount() const override {
    return Count.load(std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Count{0};
};

/// Forwards to \p Inner; writer() hands each thread a wrapper around the
/// inner log's writer for that thread that times every append.
class TimedLog final : public vyrd::Log {
public:
  explicit TimedLog(vyrd::Log &Inner);
  ~TimedLog() override;

  uint64_t append(vyrd::Action A) override;
  vyrd::LogWriter &writer() override;
  void close() override { Inner.close(); }
  bool next(vyrd::Action &Out) override { return Inner.next(Out); }
  bool tryNext(vyrd::Action &Out, bool &End) override {
    return Inner.tryNext(Out, End);
  }
  uint64_t appendCount() const override { return Inner.appendCount(); }
  uint64_t byteCount() const override { return Inner.byteCount(); }

  /// Every timed append latency (ns), merged over threads, and their sum.
  /// Call after the producer threads have joined.
  std::vector<double> latencies() const;
  uint64_t totalNs() const;

private:
  class Writer;
  vyrd::Log &Inner;
  const uint64_t Id;
  mutable std::mutex M;
  std::vector<std::unique_ptr<Writer>> Writers;
};

//===----------------------------------------------------------------------===//
// Probe
//===----------------------------------------------------------------------===//

/// Due and checked times of the probe operations of one run, by probe id.
struct ProbeBoard {
  explicit ProbeBoard(size_t N) : DueNs(N, 0), CheckedNs(N) {}
  std::vector<uint64_t> DueNs;
  std::vector<std::atomic<uint64_t>> CheckedNs; ///< 0 = not checked
  /// Lag (µs) of every issued probe id in [0, Issued); \p Missing counts
  /// probes whose record never reached the checker.
  std::vector<double> lagsUs(size_t Issued, uint64_t &Missing) const;
};

/// Emits one probe operation (call, commit, return) through \p H.
void emitProbe(const vyrd::Hooks &H, uint64_t Id);

/// A Verifier for online view refinement of \p P's objects plus the probe
/// object, with the buffered log, BP_Block admission bounded at
/// \p MaxPending records, and \p CheckerThreads checkers; started.
/// \p ProbeHooks receives the probe object's hooks. Telemetry, monitor,
/// adaptive control, shedding and shipping stay off.
std::unique_ptr<vyrd::Verifier>
makeOnlineVerifier(const Program &P, unsigned CheckerThreads,
                   size_t MaxPending, std::shared_ptr<ProbeBoard> Board,
                   vyrd::Hooks &ProbeHooks);

//===----------------------------------------------------------------------===//
// Decorators
//===----------------------------------------------------------------------===//

/// Call counts and nanoseconds of one checker's spec and replayer.
struct CallTimes {
  uint64_t MutatorCalls = 0, MutatorNs = 0;
  uint64_t ObserverCalls = 0, ObserverNs = 0;
  uint64_t UpdateCalls = 0, UpdateNs = 0;
};

std::unique_ptr<vyrd::Spec> timeSpec(std::unique_ptr<vyrd::Spec> In,
                                     CallTimes &T);
std::unique_ptr<vyrd::Replayer>
timeReplayer(std::unique_ptr<vyrd::Replayer> In, CallTimes &T);

//===----------------------------------------------------------------------===//
// Streams
//===----------------------------------------------------------------------===//

/// What a recorded stream holds, read back once with LogFileReader.
struct StreamInfo {
  uint64_t Records = 0;
  uint64_t Calls = 0; ///< AK_Call records: the program operations
  std::vector<uint64_t> PerObject;
  bool Ok = false;
};
StreamInfo scanStream(const std::string &Path, size_t Objects);

/// Records \p P's scenario, view level, from \p Threads threads into
/// \p Path through the buffered log. \returns the operations issued.
uint64_t recordStream(const Program &P, const std::string &Path,
                      unsigned Threads, unsigned OpsPerThread, uint64_t Seed,
                      bool Buggy = false);

//===----------------------------------------------------------------------===//
// Traced layer suite (layers.cpp)
//===----------------------------------------------------------------------===//

/// What the per-layer suite needs from the workload it runs under.
struct LayerContext {
  const Program &Prog;
  const RunArgs &Args;
  Spans &S;
  /// Records per second the workload's measured phase pushed through the
  /// log: the append-to-batch probe paces its producer at this rate.
  double RecordRate = 0;
  /// Closed-loop operations per load thread for the program, hooks and
  /// log layers, and for the snapshot chain the epoch layer checks.
  uint64_t LayerOpsPerThread = 0;
  uint64_t EpochOpsPerThread = 0;
};

/// Runs every layer in isolation on the workload's program and its own
/// recorded stream, adding the per-layer metrics shared by all workloads
/// to \p R (see README.md for the list).
void runLayerSuite(const LayerContext &C, RunResult &R);

} // namespace perfbench

#endif // VYRD_PERFBENCH_PROGRAMS_H
