//===- Workload.h - Random test harness (Sec. 7.1) --------------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's test harness (Sec. 7.1): each test generates a random pool
/// of keys shared by all threads, spawns a number of threads each issuing a
/// given number of random method calls on the same data structure instance,
/// and gradually shrinks the pool to focus concurrent calls on a smaller
/// region. In implementations with compression mechanisms the compression
/// thread runs continuously. Optionally, the run stops as soon as the
/// online verifier flags a violation (the Table 1 protocol).
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_HARNESS_WORKLOAD_H
#define VYRD_HARNESS_WORKLOAD_H

#include "vyrd/Verifier.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace vyrd {
namespace harness {

/// Small deterministic PRNG (xorshift64*), one per thread.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x2545F4914F6CDD1DULL) {}

  uint64_t next() {
    uint64_t X = State;
    X ^= X >> 12;
    X ^= X << 25;
    X ^= X >> 27;
    State = X;
    return X * 0x2545F4914F6CDD1DULL;
  }

  /// Uniform in [0, N).
  uint64_t range(uint64_t N) { return N ? next() % N : 0; }

  /// True with probability \p Percent / 100.
  bool percent(unsigned Percent) { return range(100) < Percent; }

private:
  uint64_t State;
};

/// The shared, shrinking key pool.
class KeyPool {
public:
  /// \p Size keys drawn uniformly from [0, KeyRange); the usable prefix
  /// shrinks linearly from Size to Size * FinalFraction as the workload
  /// progresses.
  KeyPool(size_t Size, int64_t KeyRange, double FinalFraction,
          uint64_t Seed);

  /// A key for the current progress point (0 = start, 1 = end of run).
  int64_t pick(Rng &R, double Progress) const;

  size_t size() const { return Keys.size(); }

private:
  std::vector<int64_t> Keys;
  double FinalFraction;
};

/// Workload shape parameters.
struct WorkloadOptions {
  unsigned Threads = 4;
  unsigned OpsPerThread = 1000;
  size_t KeyPoolSize = 64;
  int64_t KeyRange = 1 << 20;
  double FinalPoolFraction = 0.25;
  uint64_t Seed = 1;
  /// Stop issuing operations once this verifier reports a violation.
  Verifier *StopOnViolation = nullptr;
  /// When set, one extra thread runs this continuously until the
  /// application threads finish (the compression thread), and at least
  /// once.
  std::function<void()> BackgroundOp;
};

/// Aggregate outcome of a workload run.
struct WorkloadResult {
  /// Method calls issued by application threads (compression excluded).
  uint64_t OpsIssued = 0;
  /// Wall-clock seconds spent by the application threads.
  double Seconds = 0;
  /// Whether the run stopped early due to a detected violation.
  bool StoppedEarly = false;
};

/// Runs \p Op from Options.Threads threads, Options.OpsPerThread times
/// each. \p Op receives the thread's RNG, two keys from the pool and the
/// run progress in [0, 1].
WorkloadResult
runWorkload(const WorkloadOptions &Options,
            const std::function<void(Rng &, int64_t, int64_t, double)> &Op);

} // namespace harness
} // namespace vyrd

#endif // VYRD_HARNESS_WORKLOAD_H
