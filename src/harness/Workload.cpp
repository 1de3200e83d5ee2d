//===- Workload.cpp - Random test harness (Sec. 7.1) -----------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Workload.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace vyrd;
using namespace vyrd::harness;

KeyPool::KeyPool(size_t Size, int64_t KeyRange, double FinalFraction,
                 uint64_t Seed)
    : FinalFraction(FinalFraction) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0xabcd);
  Keys.reserve(Size);
  for (size_t I = 0; I < Size; ++I)
    Keys.push_back(static_cast<int64_t>(R.range(KeyRange)));
}

int64_t KeyPool::pick(Rng &R, double Progress) const {
  if (Progress < 0)
    Progress = 0;
  if (Progress > 1)
    Progress = 1;
  double Frac = 1.0 - Progress * (1.0 - FinalFraction);
  size_t Effective = static_cast<size_t>(Keys.size() * Frac);
  if (Effective == 0)
    Effective = 1;
  return Keys[R.range(Effective)];
}

WorkloadResult vyrd::harness::runWorkload(
    const WorkloadOptions &Options,
    const std::function<void(Rng &, int64_t, int64_t, double)> &Op) {
  KeyPool Pool(Options.KeyPoolSize, Options.KeyRange,
               Options.FinalPoolFraction, Options.Seed);
  std::atomic<uint64_t> Issued{0};
  std::atomic<bool> Stop{false};
  std::atomic<bool> AppDone{false};

  auto Start = std::chrono::steady_clock::now();

  std::vector<std::thread> Threads;
  Threads.reserve(Options.Threads);
  for (unsigned T = 0; T < Options.Threads; ++T) {
    Threads.emplace_back([&, T] {
      Rng R(Options.Seed * 1000003ULL + T * 7919ULL + 1);
      for (unsigned I = 0; I < Options.OpsPerThread; ++I) {
        if (Stop.load(std::memory_order_relaxed))
          break;
        if (Options.StopOnViolation &&
            Options.StopOnViolation->violationSeen()) {
          Stop.store(true, std::memory_order_relaxed);
          break;
        }
        double Progress =
            static_cast<double>(I) / Options.OpsPerThread;
        int64_t K1 = Pool.pick(R, Progress);
        int64_t K2 = Pool.pick(R, Progress);
        Op(R, K1, K2, Progress);
        Issued.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread Background;
  if (Options.BackgroundOp) {
    // At least one pass even when the application threads finish before
    // this thread is first scheduled.
    Background = std::thread([&] {
      do {
        Options.BackgroundOp();
        std::this_thread::yield();
      } while (!AppDone.load(std::memory_order_acquire));
    });
  }

  for (std::thread &T : Threads)
    T.join();
  AppDone.store(true, std::memory_order_release);
  if (Background.joinable())
    Background.join();

  WorkloadResult Res;
  Res.OpsIssued = Issued.load();
  Res.Seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  Res.StoppedEarly = Stop.load();
  return Res;
}
