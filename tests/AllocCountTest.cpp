//===- AllocCountTest.cpp - Heap traffic of the record pipeline ------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the allocation-lean record pipeline (ValueList small-buffer
/// storage, Action move paths, Exec pooling, batch-vector recycling) with
/// a global operator-new hook: after a warm-up pass, pushing a record
/// through append -> batch -> check must stay under a small allocation
/// budget per record. A regression that reintroduces per-record heap
/// churn (e.g. copying Actions somewhere, or losing a recycled buffer)
/// fails this test rather than only showing up in bench numbers.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "vyrd/Checker.h"
#include "vyrd/BufferedLog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace vyrd;
using namespace vyrd::test;

//===----------------------------------------------------------------------===//
// Global allocation counting hook
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocCount{0};
std::atomic<bool> GCountAllocs{false};
} // namespace

void *operator new(size_t Size) {
  if (GCountAllocs.load(std::memory_order_relaxed))
    GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size) { return operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

namespace {

/// Minimal register spec: Set(x) -> true mutates, Get() -> x observes.
/// Integer-only values so the spec itself allocates nothing per record.
class AllocRegisterSpec : public Spec {
public:
  AllocRegisterSpec()
      : SetM(name("alloc.Set")), GetM(name("alloc.Get")), State(Value(0)) {}

  bool isObserver(Name Method) const override { return Method == GetM; }

  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &) override {
    if (Method != SetM || Args.size() != 1 || !Ret.isBool() ||
        !Ret.asBool())
      return false;
    State = Args[0];
    return true;
  }

  bool returnAllowed(Name Method, const ValueList &,
                     const Value &Ret) const override {
    return Method == GetM && Ret == State;
  }

  void buildView(View &Out) const override { Out.clear(); }

  Name SetM, GetM;
  Value State;
};

/// One epoch of app-side traffic: an observer window spanning a mutator,
/// all values correct (violations allocate report strings and are not
/// part of the steady-state budget).
size_t appendEpoch(LogWriter &W, AllocRegisterSpec &S, int64_t X) {
  W.append(Action::call(1, S.GetM, {}));
  W.append(Action::call(0, S.SetM, {Value(X)}));
  W.append(Action::commit(0));
  W.append(Action::ret(0, S.SetM, Value(true)));
  W.append(Action::ret(1, S.GetM, Value(X)));
  return 5;
}

} // namespace

TEST(AllocCountTest, SteadyStatePipelineAllocBudget) {
  AllocRegisterSpec S;
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_IORefinement;
  RefinementChecker C(S, nullptr, CC);

  BufferedLog Log;
  std::vector<Action> Batch;

  // Drain helper mirroring the verifier pump: batch out of the log and
  // feed in order, reusing the same batch vector throughout. It takes
  // what the flusher has published so far; close() before the last call
  // makes that everything.
  auto Pump = [&] {
    bool End = false;
    Batch.clear();
    Action A;
    while (Log.tryNext(A, End))
      Batch.push_back(std::move(A));
    for (Action &B : Batch)
      C.feed(B);
  };

  // Warm-up: grows the log's queue chunks, the batch vector, the
  // checker's event queue, exec pool and memo table to steady state.
  constexpr int WarmupEpochs = 200;
  for (int E = 0; E < WarmupEpochs; ++E) {
    appendEpoch(Log, S, E % 7);
    if (E % 4 == 0)
      Pump();
  }
  Pump();

  // Measured phase: identical traffic, counted.
  constexpr int MeasuredEpochs = 400;
  size_t Records = 0;
  GAllocCount.store(0);
  GCountAllocs.store(true);
  for (int E = 0; E < MeasuredEpochs; ++E) {
    Records += appendEpoch(Log, S, E % 7);
    if (E % 4 == 0)
      Pump();
  }
  Log.close();
  Pump();
  GCountAllocs.store(false);
  uint64_t Allocs = GAllocCount.load();

  EXPECT_FALSE(C.hasViolation())
      << "traffic must be clean: " << C.violations().front().str();
  EXPECT_EQ(C.stats().ActionsFed, uint64_t(Records + WarmupEpochs * 5));

  // Budget: pre-overhaul this pipeline sat at ~2 allocations per record
  // (deque block churn in the log queue, event queue and context ring,
  // plus open-exec map nodes); the lean pipeline — RingQueue slot
  // recycling, dense open-exec slots, pooled Execs, ValueList SBO — runs
  // at zero in steady state. The bound leaves headroom for
  // allocator/libstdc++ differences while still failing if any
  // per-record allocation sneaks back in.
  double PerRecord = double(Allocs) / double(Records);
  EXPECT_LT(PerRecord, 0.5) << Allocs << " allocations over " << Records
                            << " records";
}
