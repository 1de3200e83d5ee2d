//===- perfbench.h - Shared pieces of the pipeline benchmark ----*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, order statistics, the metric set printed as the result line,
/// the in-memory span recorder of the traced mode, and the declarations
/// the benchmark's translation units share (programs.cpp: the bench-owned
/// logs, probe and decorators; workloads.cpp: the measured end-to-end
/// runs; layers.cpp: the traced per-layer suite). See README.md.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_PERFBENCH_H
#define VYRD_PERFBENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Clocks and statistics
//===----------------------------------------------------------------------===//

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t clockNs(clockid_t C) {
  timespec T{};
  clock_gettime(C, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(T.tv_nsec);
}
/// CPU time of the calling thread.
inline uint64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
/// CPU time of the whole process, less that of the idle pollers.
uint64_t processCpuNs();

/// While alive, runs one thread per CPU at SCHED_IDLE priority that spins
/// until stopped. The kernel runs such a thread only when nothing else
/// wants the CPU, so the measured threads preempt it at once. On a virtual
/// machine this keeps idle vCPUs from halting: a halted vCPU is woken by
/// the host's scheduler, whose delay depends on the neighbours' load and
/// would dominate every cross-thread hand-off in the pipeline under test.
/// Their CPU time is left out of processCpuNs().
class IdlePollers {
public:
  explicit IdlePollers(unsigned N);
  ~IdlePollers();
  IdlePollers(const IdlePollers &) = delete;
  IdlePollers &operator=(const IdlePollers &) = delete;

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

/// Spins until the steady clock reaches \p DueNs; \returns the time it
/// read last. For microsecond periods, where a sleep is far too coarse;
/// yielding in the spin lets a thread that shares the CPU run first.
inline uint64_t waitUntil(uint64_t DueNs) {
  uint64_t Now;
  while ((Now = nowNs()) < DueNs)
    std::this_thread::yield();
  return Now;
}

/// Sleeps until the steady clock reaches \p DueNs; \returns the time it
/// read on waking. Open-loop generators pace their bursts with it, so
/// between bursts they leave their CPU to the pipeline under test.
uint64_t sleepUntil(uint64_t DueNs);

/// Shrinks the calling thread's timer slack to a microsecond, so its
/// sleeps end close to their deadline (the default slack is 50 µs, and
/// where in that window a sleep ends depends on the CPU's other timers).
/// Threads inherit the slack of the thread that creates them.
void tightTimerSlack();

/// Peak resident set size of the process so far, in MiB.
double peakRssMb();

/// Quantile \p Q in [0, 1] by linear interpolation between order
/// statistics (0.5 = median). 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Outcome of one benchmark invocation: the verdict guard's counts and the
/// metrics of the requested mode, in the order they were added.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Why Correct is false (printed to stderr).
  std::vector<std::string> Problems;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void fail(std::string Why) {
    Correct = false;
    Problems.push_back(std::move(Why));
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
};

//===----------------------------------------------------------------------===//
// Spans (traced mode)
//===----------------------------------------------------------------------===//

/// In-memory span recorder: name, start, end and parent of every span,
/// written out as JSON when the benchmark ends. Thread-safe; spans are
/// recorded only around the benchmark's own calls into a layer.
class Spans {
public:
  /// Opens a span; \returns its id. \p Parent = -1 for a root span.
  int begin(std::string Name, int Parent = -1);
  void end(int Id);
  /// Records an already measured interval.
  int add(std::string Name, uint64_t StartNs, uint64_t EndNs,
          int Parent = -1);
  uint64_t durationNs(int Id) const;
  bool write(const std::string &Path) const;

private:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int Parent = -1;
  };
  mutable std::mutex M;
  std::vector<Span> All;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Spans *S, std::string Name, int Parent = -1)
      : S(S), Id(S ? S->begin(std::move(Name), Parent) : -1) {}
  ~SpanScope() {
    if (S)
      S->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int id() const { return Id; }

private:
  Spans *S;
  int Id;
};

//===----------------------------------------------------------------------===//
// Invocation
//===----------------------------------------------------------------------===//

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for recordings and chains (removed at exit).
  std::string WorkDir;
  /// Where a traced run writes its span file.
  std::string SpanDir;
};

/// Load-generating threads of the measured phases and of the traced
/// layer suite; main() checks them against nproc.
constexpr unsigned ReplayFeederThreads = 1;
constexpr unsigned PacedGeneratorThreads = 2;
constexpr unsigned LayerAppThreads = 3;
constexpr unsigned EpochThreads = 4;

RunResult runCompositeReplay(const RunArgs &A);
RunResult runHashtablePaced(const RunArgs &A);

/// The verdict self-check: records a buggy composite run and replays it
/// through the composite-replay path. \returns an empty string when a
/// violation was reported and every violation is attributed to the
/// "multiset" object, otherwise what went wrong.
std::string buggyReplaySelfCheck(const std::string &WorkDir, uint64_t Seed);

} // namespace perfbench

#endif // VYRD_PERFBENCH_H
