//===- micro_vyrd.cpp - Micro-benchmarks of the VYRD core ------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks of the hot paths: log append, record
// encode/decode, incremental view updates, hash-based view comparison,
// and end-to-end checker feed throughput.
//
//===----------------------------------------------------------------------===//

#include "multiset/ArrayMultiset.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Checker.h"
#include "vyrd/BufferedLog.h"
#include "vyrd/Serialize.h"
#include "vyrd/View.h"

#include <benchmark/benchmark.h>

using namespace vyrd;

static void BM_ActionEncode(benchmark::State &State) {
  Name M = internName("bench.encode");
  Action A = Action::call(3, M, {Value(42), Value("argument")});
  ActionEncoder Enc;
  ByteWriter W;
  for (auto _ : State) {
    W.clear();
    Enc.encode(A, W);
    benchmark::DoNotOptimize(W.buffer().data());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ActionEncode);

static void BM_ActionRoundTrip(benchmark::State &State) {
  Name M = internName("bench.rt");
  Action A = Action::write(1, M, Value(Value::Bytes(64, 0xAB)));
  for (auto _ : State) {
    ActionEncoder Enc;
    ByteWriter W;
    Enc.encode(A, W);
    ByteReader R(W.buffer().data(), W.size());
    ActionDecoder Dec;
    Action Out;
    bool Ok = Dec.decode(R, Out);
    benchmark::DoNotOptimize(Ok);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_ActionRoundTrip);

static void BM_ViewAddRemove(benchmark::State &State) {
  View V;
  int64_t K = 0;
  for (auto _ : State) {
    V.add(Value(K % 4096), Value());
    V.remove(Value(K % 4096), Value());
    ++K;
  }
  State.SetItemsProcessed(State.iterations() * 2);
}
BENCHMARK(BM_ViewAddRemove);

static void BM_ViewHashCompare(benchmark::State &State) {
  View A, B;
  for (int I = 0; I < State.range(0); ++I) {
    A.add(Value(I), Value(I * 3));
    B.add(Value(I), Value(I * 3));
  }
  for (auto _ : State) {
    bool Eq = A == B;
    benchmark::DoNotOptimize(Eq);
  }
}
BENCHMARK(BM_ViewHashCompare)->Arg(16)->Arg(1024)->Arg(65536);

static void BM_ViewDeepCompare(benchmark::State &State) {
  View A, B;
  for (int I = 0; I < State.range(0); ++I) {
    A.add(Value(I), Value(I * 3));
    B.add(Value(I), Value(I * 3));
  }
  for (auto _ : State) {
    bool Eq = A.deepEquals(B);
    benchmark::DoNotOptimize(Eq);
  }
}
BENCHMARK(BM_ViewDeepCompare)->Arg(16)->Arg(1024)->Arg(65536);

/// End-to-end feed throughput: a pre-recorded multiset trace through the
/// view-refinement checker.
static void BM_CheckerFeed(benchmark::State &State) {
  // Record the trace once.
  static std::vector<Action> *Trace = [] {
    auto *T = new std::vector<Action>();
    BufferedLog L;
    multiset::ArrayMultiset::Options MO;
    MO.Capacity = 32;
    multiset::ArrayMultiset M(MO, Hooks(&L, LogLevel::LL_View));
    for (int I = 0; I < 500; ++I) {
      M.insert(I % 40);
      M.lookUp(I % 40);
      if (I % 2)
        M.remove(I % 40);
    }
    L.close();
    Action A;
    while (L.next(A))
      T->push_back(A);
    return T;
  }();

  for (auto _ : State) {
    multiset::MultisetSpec Spec;
    auto Replay = KeyValueReplayer::guardedBag("A");
    RefinementChecker C(Spec, Replay.get(), CheckerConfig{});
    for (const Action &A : *Trace)
      C.feed(A);
    C.finish();
    if (C.hasViolation())
      State.SkipWithError("unexpected violation");
  }
  State.SetItemsProcessed(State.iterations() * Trace->size());
}
BENCHMARK(BM_CheckerFeed);

BENCHMARK_MAIN();
