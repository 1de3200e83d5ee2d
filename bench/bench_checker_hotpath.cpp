//===- bench_checker_hotpath.cpp - Checker hot-path A/B bench --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the two costs the checker hot-path overhaul targets:
//
//  1. Observer evaluation redundancy. An observer-heavy, Vector-style
//     workload — epochs of K concurrent open observers (with heavily
//     duplicated signatures) spanning M mutator commits each, satisfied
//     only by the *last* state of their window (the adversarial Fig. 7
//     shape) — is fed through RefinementChecker twice, with observer
//     memoization on and off, and the checker CPU ns/record compared.
//     Both runs must report identical violations (none).
//
//  2. Heap allocations per logged record on the append -> batch -> check
//     path, counted with an operator-new hook around a BufferedLog
//     append/tryNext/feed pipeline of the same trace.
//
// Usage: bench_checker_hotpath [--quick] [--json <out.json>]
//
// JSON rows (schema of docs/OBSERVABILITY.md "Benchmark JSON"):
//   config "memo-on" / "memo-off"  — ns_per_op = checker CPU ns/record
//   config "alloc-pipeline"        — extra.allocs_per_record
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "vyrd/Checker.h"
#include "vyrd/BufferedLog.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

//===----------------------------------------------------------------------===//
// Counting operator-new hook
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocCount{0};
std::atomic<bool> GCountAllocs{false};
} // namespace

void *operator new(std::size_t Sz) {
  if (GCountAllocs.load(std::memory_order_relaxed))
    GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return ::operator new(Sz); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace vyrd;
using namespace vyrd::bench;

namespace {

//===----------------------------------------------------------------------===//
// A small Vector-style spec (java.util.Vector flavor): observers scan the
// abstract state, so their cost is realistic rather than a table lookup.
//===----------------------------------------------------------------------===//

class VectorSpec : public Spec {
public:
  VectorSpec()
      : Add(internName("hp.AddElement")), Rem(internName("hp.RemoveElement")),
        Size(internName("hp.Size")), IndexOf(internName("hp.IndexOf")),
        HashCode(internName("hp.HashCode")) {}

  bool isObserver(Name M) const override {
    return M == Size || M == IndexOf || M == HashCode;
  }

  bool applyMutator(Name M, const ValueList &Args, const Value &Ret,
                    View &) override {
    if (M == Add && Args.size() == 1 && Args[0].isInt()) {
      Elems.push_back(Args[0].asInt());
      return true;
    }
    if (M == Rem && Args.size() == 1 && Args[0].isInt() && Ret.isBool()) {
      for (size_t I = 0; I < Elems.size(); ++I) {
        if (Elems[I] != Args[0].asInt())
          continue;
        if (!Ret.asBool())
          return false;
        Elems.erase(Elems.begin() + I);
        return true;
      }
      return !Ret.asBool();
    }
    return false;
  }

  bool returnAllowed(Name M, const ValueList &Args,
                     const Value &Ret) const override {
    if (M == Size)
      return Ret.isInt() &&
             Ret.asInt() == static_cast<int64_t>(Elems.size());
    if (M == IndexOf && Args.size() == 1 && Args[0].isInt()) {
      int64_t Found = -1;
      for (size_t I = 0; I < Elems.size(); ++I) {
        if (Elems[I] == Args[0].asInt()) {
          Found = static_cast<int64_t>(I);
          break;
        }
      }
      return Ret.isInt() && Ret.asInt() == Found;
    }
    if (M == HashCode)
      return Ret.isInt() && Ret.asInt() == hashOf();
    return false;
  }

  /// java.util.Vector-style content hash: O(n) and sensitive to every
  /// element, so a HashCode() observer is the expensive, late-satisfied
  /// case memoization targets.
  int64_t hashOf() const {
    int64_t H = 1;
    for (int64_t E : Elems)
      H = 31 * H + E;
    return H;
  }

  void buildView(View &) const override {}

  const Name Add, Rem, Size, IndexOf, HashCode;
  std::vector<int64_t> Elems;
};

//===----------------------------------------------------------------------===//
// Trace synthesis
//===----------------------------------------------------------------------===//

/// Builds the observer-heavy trace: \p Epochs rounds of \p Observers
/// concurrent observer windows (signatures drawn from a small set, so
/// duplicates abound) spanning \p Commits mutator commits each. Observer
/// return values are computed from the *end-of-epoch* state, so every
/// observer stays unsatisfied (and is re-evaluated) at every intermediate
/// commit — the worst case Sec. 4.3 allows. Each epoch mutates in one
/// direction only (all adds or all removes), so the abstract size moves
/// strictly monotonically inside every window and no intermediate state
/// can coincide with the final one; the size oscillates within
/// [\p SteadySize - \p Commits, \p SteadySize].
std::vector<Action> makeTrace(unsigned Epochs, unsigned Observers,
                              unsigned Commits, unsigned SteadySize) {
  VectorSpec Gen; // generator-side shadow state (never checked)
  View Unused;
  std::vector<Action> Trace;
  uint64_t Seq = 0;
  uint64_t Rand = 0x9e3779b97f4a7c15ULL;
  auto NextRand = [&Rand] {
    Rand ^= Rand << 13;
    Rand ^= Rand >> 7;
    Rand ^= Rand << 17;
    return Rand;
  };
  auto Push = [&](Action A) {
    A.Seq = Seq++;
    Trace.push_back(std::move(A));
  };

  for (unsigned E = 0; E < Epochs; ++E) {
    // 1. The epoch's mutations, precomputed so observer return values can
    // be drawn from the final state.
    struct Mut {
      Name M;
      int64_t V;
      Value Ret;
    };
    std::vector<Mut> Muts;
    bool AddEpoch = Gen.Elems.size() < SteadySize;
    for (unsigned C = 0; C < Commits; ++C) {
      if (AddEpoch) {
        int64_t V = static_cast<int64_t>(NextRand() % (SteadySize * 2));
        Gen.applyMutator(Gen.Add, {Value(V)}, Value(), Unused);
        Muts.push_back({Gen.Add, V, Value()});
      } else {
        int64_t V =
            Gen.Elems[static_cast<size_t>(NextRand() % Gen.Elems.size())];
        Gen.applyMutator(Gen.Rem, {Value(V)}, Value(true), Unused);
        Muts.push_back({Gen.Rem, V, Value(true)});
      }
    }

    // 2. Observer calls open first (their windows span all the commits).
    // Signatures repeat heavily: HashCode() and Size() are identical
    // across observers, IndexOf keys are drawn from a pool of 4 per
    // epoch. HashCode dominates the mix — it is the O(n), changes-every-
    // commit observer whose redundant re-evaluation the memo removes.
    struct Obs {
      ThreadId Tid;
      Name M;
      ValueList Args;
      Value Ret;
    };
    std::vector<Obs> Open;
    int64_t KeyPool[4];
    for (int64_t &K : KeyPool)
      K = static_cast<int64_t>(NextRand() % (SteadySize * 2));
    for (unsigned O = 0; O < Observers; ++O) {
      Obs Ob;
      Ob.Tid = 1 + O;
      if (O % 2 == 0) {
        Ob.M = O % 8 == 0 ? Gen.Size : Gen.HashCode;
      } else {
        Ob.M = Gen.IndexOf;
        Ob.Args.push_back(Value(KeyPool[O % 4]));
      }
      Push(Action::call(Ob.Tid, Ob.M, Ob.Args));
      Open.push_back(std::move(Ob));
    }

    // 3. The commits (mutator thread 0, one call/commit/return each).
    for (const Mut &M : Muts) {
      Push(Action::call(0, M.M, {Value(M.V)}));
      Push(Action::commit(0));
      Push(Action::ret(0, M.M, M.Ret));
    }

    // 4. Observer returns, answered from the end-of-epoch state: allowed
    // here, not at any earlier commit of the window.
    for (Obs &Ob : Open) {
      Value Ret;
      if (Ob.M == Gen.Size) {
        Ret = Value(static_cast<int64_t>(Gen.Elems.size()));
      } else if (Ob.M == Gen.HashCode) {
        Ret = Value(Gen.hashOf());
      } else {
        int64_t Found = -1;
        for (size_t I = 0; I < Gen.Elems.size(); ++I) {
          if (Gen.Elems[I] == Ob.Args[0].asInt()) {
            Found = static_cast<int64_t>(I);
            break;
          }
        }
        Ret = Value(Found);
      }
      Push(Action::ret(Ob.Tid, Ob.M, Ret));
    }
  }
  return Trace;
}

/// Feeds \p Trace through a fresh checker. \returns the checker's stats;
/// \p CpuSecs gets the CPU cost of the feed loop, \p NumViolations the
/// violation count.
CheckerStats checkTrace(const std::vector<Action> &Trace, bool Memoize,
                        double &CpuSecs, size_t &NumViolations) {
  VectorSpec S;
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_IORefinement;
  CC.MemoizeObservers = Memoize;
  RefinementChecker Checker(S, nullptr, CC);
  double C0 = cpuSeconds(), W0 = wallSeconds();
  for (const Action &A : Trace)
    Checker.feed(A);
  Checker.finish();
  double C = cpuSeconds() - C0;
  CpuSecs = C > 0 ? C : wallSeconds() - W0;
  NumViolations = Checker.violations().size();
  return Checker.stats();
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  BenchJson BJ("bench_checker_hotpath", Args.JsonPath);

  unsigned Epochs = Args.Quick ? 60 : 600;
  unsigned Observers = 32;
  unsigned Commits = 16;
  unsigned SteadySize = 96;

  std::printf("Checker hot path: observer-heavy Vector-style workload\n");
  std::printf("  %u epochs x %u observers x %u commits, ~%u elements\n\n",
              Epochs, Observers, Commits, SteadySize);

  std::vector<Action> Trace =
      makeTrace(Epochs, Observers, Commits, SteadySize);
  double Records = static_cast<double>(Trace.size());

  // --- 1. memo on/off A/B over the identical trace -----------------------
  double OnSecs = 0, OffSecs = 0;
  size_t OnViol = 0, OffViol = 0;
  CheckerStats On = checkTrace(Trace, true, OnSecs, OnViol);
  CheckerStats Off = checkTrace(Trace, false, OffSecs, OffViol);
  if (OnViol != OffViol) {
    std::fprintf(stderr,
                 "FATAL: memo-on (%zu) and memo-off (%zu) violation counts "
                 "disagree — memoization is not semantically invisible\n",
                 OnViol, OffViol);
    return 1;
  }
  double OnNs = OnSecs * 1e9 / Records;
  double OffNs = OffSecs * 1e9 / Records;
  double Reduction = OffNs > 0 ? (1.0 - OnNs / OffNs) * 100.0 : 0;

  std::printf("%-10s %10s %14s %14s %14s\n", "config", "records",
              "cpu ns/record", "spec calls", "memo hits");
  hr();
  std::printf("%-10s %10zu %14.1f %14llu %14llu\n", "memo-off", Trace.size(),
              OffNs,
              static_cast<unsigned long long>(Off.ObserversChecked +
                                              Off.CommitsProcessed),
              0ull);
  std::printf("%-10s %10zu %14.1f %14llu %14llu\n", "memo-on", Trace.size(),
              OnNs, static_cast<unsigned long long>(On.ObsMemoMisses),
              static_cast<unsigned long long>(On.ObsMemoHits));
  hr();
  std::printf("checker CPU ns/record reduction: %.1f%% (violations: %zu, "
              "identical on/off)\n\n",
              Reduction, OnViol);

  char Extra[192];
  std::snprintf(Extra, sizeof(Extra),
                "{\"memo_hits\":%llu,\"memo_misses\":%llu,"
                "\"version_bumps\":%llu,\"violations\":%zu}",
                static_cast<unsigned long long>(On.ObsMemoHits),
                static_cast<unsigned long long>(On.ObsMemoMisses),
                static_cast<unsigned long long>(On.SpecVersionBumps), OnViol);
  BJ.row("memo-on", 1, OnNs, OnSecs > 0 ? Records / OnSecs : 0, Extra);
  std::snprintf(Extra, sizeof(Extra), "{\"violations\":%zu}", OffViol);
  BJ.row("memo-off", 1, OffNs, OffSecs > 0 ? Records / OffSecs : 0, Extra);

  // --- 2. allocations per record, append -> batch -> check ---------------
  // The trace is pre-built and the checker pre-warmed (pools, memo table,
  // queue chunks), so the counted window holds only the steady-state
  // per-record cost of the pipeline. PumpReady takes what the flusher has
  // published; close() before the last call makes that everything.
  {
    VectorSpec S;
    CheckerConfig CC;
    CC.Mode = CheckMode::CM_IORefinement;
    RefinementChecker Checker(S, nullptr, CC);
    BufferedLog Log;
    LogWriter &W = Log.writer();

    auto PumpReady = [&](std::vector<Action> &Batch) {
      bool End = false;
      Action A;
      (void)End;
      Batch.clear();
      while (Log.tryNext(A, End))
        Batch.push_back(std::move(A));
      for (const Action &B : Batch)
        Checker.feed(B);
    };

    std::vector<Action> Batch;
    Batch.reserve(256);
    size_t Warmup = Trace.size() / 4;
    for (size_t I = 0; I < Warmup; ++I)
      W.append(Trace[I]);
    PumpReady(Batch);

    GAllocCount.store(0, std::memory_order_relaxed);
    GCountAllocs.store(true, std::memory_order_relaxed);
    double C0 = cpuSeconds();
    for (size_t I = Warmup; I < Trace.size(); ++I) {
      W.append(Trace[I]);
      if ((I & 255) == 0)
        PumpReady(Batch);
    }
    Log.close();
    PumpReady(Batch);
    double CSecs = cpuSeconds() - C0;
    GCountAllocs.store(false, std::memory_order_relaxed);
    uint64_t Allocs = GAllocCount.load(std::memory_order_relaxed);
    Checker.finish();

    double Counted = static_cast<double>(Trace.size() - Warmup);
    double PerRecord = Allocs / Counted;
    std::printf("append->batch->check allocation count: %llu allocs / %zu "
                "records = %.3f allocs/record\n",
                static_cast<unsigned long long>(Allocs),
                Trace.size() - Warmup, PerRecord);
    std::snprintf(Extra, sizeof(Extra),
                  "{\"allocs\":%llu,\"records\":%zu,"
                  "\"allocs_per_record\":%.3f}",
                  static_cast<unsigned long long>(Allocs),
                  Trace.size() - Warmup, PerRecord);
    BJ.row("alloc-pipeline", 1, CSecs * 1e9 / Counted,
           CSecs > 0 ? Counted / CSecs : 0, Extra);
  }

  return BJ.write() ? 0 : 1;
}
