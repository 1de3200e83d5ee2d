//===- AutoInstrumentTest.cpp - The auto layer vs hand-written hooks -------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The auto-instrumentation layer (vyrd/Auto.h) claims to emit the same
/// action stream a careful hand instrumentation would. This file pins the
/// claim down: a tiny slot store is written twice — once with
/// MethodScope/CommitBlock/Hooks by hand, once through Instrumented<T>,
/// the Mutex shim, Tracked fields and a TrackedMap — and fuzzed with
/// identical operation sequences; the two logs must match record for
/// record. Alongside: a four-producer stress run with four checker
/// threads (the configuration the TSan CI job executes), the chaos
/// scheduler's per-seed determinism, and thread-id recycling.
///
//===----------------------------------------------------------------------===//

#include "multiset/ArrayMultiset.h"
#include "multiset/MultisetSpec.h"
#include "queue/BoundedQueue.h"
#include "queue/QueueSpec.h"
#include "vyrd/Auto.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

using namespace vyrd;

namespace {

//===----------------------------------------------------------------------===//
// The structure under comparison, written twice
//===----------------------------------------------------------------------===//

constexpr size_t NumSlots = 4;

struct SlotVocab {
  Name Set, Bump, KvSet, KvDel, Get;
  Name Last;
  Name Slot[NumSlots];
  Name KvSetOp, KvDelOp;

  static const SlotVocab &get() {
    static SlotVocab V = [] {
      SlotVocab N;
      N.Set = internName("Set");
      N.Bump = internName("Bump");
      N.KvSet = internName("KvSet");
      N.KvDel = internName("KvDel");
      N.Get = internName("Get");
      N.Last = internName("last");
      for (size_t I = 0; I < NumSlots; ++I)
        N.Slot[I] = internName("s[" + std::to_string(I) + "]");
      N.KvSetOp = internName("kv.set");
      N.KvDelOp = internName("kv.del");
      return N;
    }();
    return V;
  }
};

/// The hand-instrumented version: every record placed explicitly, the way
/// the workloads were written before the auto layer existed.
class HandSlotStore {
public:
  explicit HandSlotStore(Hooks H) : H(H) {}

  bool set(int64_t I, int64_t V) {
    const SlotVocab &N = SlotVocab::get();
    MethodScope Scope(H, N.Set, {Value(I), Value(V)});
    bool Ok = false;
    {
      std::lock_guard Lock(M);
      if (I >= 0 && static_cast<size_t>(I) < NumSlots) {
        CommitBlock Block(H);
        Store[I] = V;
        H.write(N.Slot[I], Value(V));
        Last = V;
        H.write(N.Last, Value(V));
        H.commit();
        Ok = true;
      }
    }
    if (!Ok)
      H.commit(); // failure leaves no trace; commit the no-op return
    Scope.setReturn(Value(Ok));
    return Ok;
  }

  void bump(int64_t D) {
    const SlotVocab &N = SlotVocab::get();
    MethodScope Scope(H, N.Bump, {Value(D)});
    {
      std::lock_guard Lock(M);
      CommitBlock Block(H);
      Last += D;
      H.write(N.Last, Value(Last));
    }
    // The update is view-neutral until committed; the commit lands after
    // the critical section (matching the auto layer's auto-commit slot).
    H.commit();
  }

  bool kvSet(int64_t K, int64_t V) {
    const SlotVocab &N = SlotVocab::get();
    MethodScope Scope(H, N.KvSet, {Value(K), Value(V)});
    {
      std::lock_guard Lock(M);
      CommitBlock Block(H);
      Kv[K] = V;
      H.replayOp(N.KvSetOp, {Value(K), Value(V)});
      H.commit();
    }
    Scope.setReturn(Value(true));
    return true;
  }

  bool kvDel(int64_t K) {
    const SlotVocab &N = SlotVocab::get();
    MethodScope Scope(H, N.KvDel, {Value(K)});
    bool Ok = false;
    {
      std::lock_guard Lock(M);
      auto It = Kv.find(K);
      if (It != Kv.end()) {
        CommitBlock Block(H);
        Kv.erase(It);
        H.replayOp(N.KvDelOp, {Value(K)});
        H.commit();
        Ok = true;
      }
    }
    if (!Ok)
      H.commit();
    Scope.setReturn(Value(Ok));
    return Ok;
  }

  int64_t get(int64_t I) {
    const SlotVocab &N = SlotVocab::get();
    MethodScope Scope(H, N.Get, {Value(I)});
    int64_t R;
    {
      std::lock_guard Lock(M);
      R = (I >= 0 && static_cast<size_t>(I) < NumSlots) ? Store[I] : -1;
    }
    Scope.setReturn(Value(R));
    return R;
  }

private:
  Hooks H;
  std::mutex M;
  int64_t Store[NumSlots] = {};
  int64_t Last = 0;
  std::map<int64_t, int64_t> Kv;
};

/// The same structure through the auto layer: no hook call anywhere in
/// the method bodies beyond the commit-point annotations.
class AutoSlotStoreImpl {
public:
  explicit AutoSlotStoreImpl(AutoContext &C)
      : Ctx(C), M(C), Last(C, SlotVocab::get().Last, 0), KvLog(C, "kv") {}

  bool set(int64_t I, int64_t V) {
    LockGuard Lock(M);
    if (I < 0 || static_cast<size_t>(I) >= NumSlots)
      return false; // permissive failure: the auto layer commits it
    Store[I] = V;
    Ctx.write(SlotVocab::get().Slot[I], Value(V));
    Last = V;
    Ctx.commit();
    return true;
  }

  void bump(int64_t D) {
    LockGuard Lock(M);
    Last = Last.get() + D;
    // No explicit commit: the dispatch auto-commits after the body.
  }

  bool kvSet(int64_t K, int64_t V) {
    LockGuard Lock(M);
    Kv[K] = V;
    KvLog.set(Value(K), Value(V));
    Ctx.commit();
    return true;
  }

  bool kvDel(int64_t K) {
    LockGuard Lock(M);
    auto It = Kv.find(K);
    if (It == Kv.end())
      return false;
    Kv.erase(It);
    KvLog.del(Value(K));
    Ctx.commit();
    return true;
  }

  int64_t get(int64_t I) {
    LockGuard Lock(M);
    return (I >= 0 && static_cast<size_t>(I) < NumSlots) ? Store[I] : -1;
  }

private:
  AutoContext &Ctx;
  Mutex M;
  int64_t Store[NumSlots] = {};
  Tracked<int64_t> Last;
  TrackedMap KvLog;
  std::map<int64_t, int64_t> Kv;
};

} // namespace

namespace vyrd {
template <> struct AutoMethods<AutoSlotStoreImpl> {
  using T = AutoSlotStoreImpl;
  static constexpr auto desc(MethodTag<&T::set>) { return method("Set"); }
  static constexpr auto desc(MethodTag<&T::bump>) { return method("Bump"); }
  static constexpr auto desc(MethodTag<&T::kvSet>) {
    return method("KvSet");
  }
  static constexpr auto desc(MethodTag<&T::kvDel>) {
    return method("KvDel");
  }
  static constexpr auto desc(MethodTag<&T::get>) { return observer("Get"); }
};
} // namespace vyrd

namespace {

class AutoSlotStore : public Instrumented<AutoSlotStoreImpl> {
public:
  explicit AutoSlotStore(Hooks H) : Instrumented(H) {}
  bool set(int64_t I, int64_t V) {
    return invoke<&AutoSlotStoreImpl::set>(I, V);
  }
  void bump(int64_t D) { invoke<&AutoSlotStoreImpl::bump>(D); }
  bool kvSet(int64_t K, int64_t V) {
    return invoke<&AutoSlotStoreImpl::kvSet>(K, V);
  }
  bool kvDel(int64_t K) { return invoke<&AutoSlotStoreImpl::kvDel>(K); }
  int64_t get(int64_t I) { return invoke<&AutoSlotStoreImpl::get>(I); }
};

//===----------------------------------------------------------------------===//
// Fuzzed log equivalence
//===----------------------------------------------------------------------===//

/// Splitmix-style step, enough to diversify the op mix per seed.
uint64_t nextRand(uint64_t &S) {
  S += 0x9e3779b97f4a7c15ull;
  uint64_t Z = S;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Runs the seeded op sequence against \p S (either twin has this shape).
template <typename StoreT> void drive(StoreT &S, uint64_t Seed, int Ops) {
  uint64_t R = Seed;
  for (int I = 0; I < Ops; ++I) {
    uint64_t Dice = nextRand(R) % 100;
    int64_t K = static_cast<int64_t>(nextRand(R) % 6);
    int64_t V = static_cast<int64_t>(nextRand(R) % 50);
    if (Dice < 25)
      S.set(K, V); // K in 0..5: out-of-range failures included
    else if (Dice < 40)
      S.bump(V % 5);
    else if (Dice < 60)
      S.kvSet(K, V);
    else if (Dice < 75)
      S.kvDel(K);
    else
      S.get(K);
  }
}

std::vector<Action> drain(BufferedLog &L) {
  L.close();
  std::vector<Action> Out;
  Action A;
  while (L.next(A))
    Out.push_back(A);
  return Out;
}

std::string describe(const Action &A) {
  std::string S = "kind=" + std::to_string(static_cast<int>(A.Kind));
  if (A.Method.valid())
    S += " method=" + std::string(A.Method.str());
  if (A.Var.valid())
    S += " var=" + std::string(A.Var.str());
  return S;
}

/// The equivalence oracle: identical single-threaded inputs must yield
/// identical logs, field for field (sequence numbers excluded — they are
/// assigned by the backend, not the instrumentation).
void expectSameStream(const std::vector<Action> &Hand,
                      const std::vector<Action> &Auto, uint64_t Seed) {
  ASSERT_EQ(Hand.size(), Auto.size()) << "seed " << Seed;
  for (size_t I = 0; I < Hand.size(); ++I) {
    const Action &H = Hand[I], &A = Auto[I];
    EXPECT_EQ(H.Kind, A.Kind) << "seed " << Seed << " record " << I << ": "
                              << describe(H) << " vs " << describe(A);
    EXPECT_EQ(H.Method, A.Method) << "seed " << Seed << " record " << I;
    EXPECT_EQ(H.Var, A.Var) << "seed " << Seed << " record " << I;
    EXPECT_EQ(H.Tid, A.Tid) << "seed " << Seed << " record " << I;
    ASSERT_EQ(H.Args.size(), A.Args.size())
        << "seed " << Seed << " record " << I;
    for (size_t J = 0; J < H.Args.size(); ++J)
      EXPECT_TRUE(H.Args[J] == A.Args[J])
          << "seed " << Seed << " record " << I << " arg " << J;
    EXPECT_TRUE(H.Ret == A.Ret)
        << "seed " << Seed << " record " << I << ": " << describe(H);
  }
}

std::vector<Action> runHand(uint64_t Seed, int Ops, LogLevel Level) {
  BufferedLog L;
  HandSlotStore S(Hooks(&L, Level));
  drive(S, Seed, Ops);
  return drain(L);
}

std::vector<Action> runAuto(uint64_t Seed, int Ops, LogLevel Level) {
  BufferedLog L;
  AutoSlotStore S(Hooks(&L, Level));
  drive(S, Seed, Ops);
  return drain(L);
}

TEST(AutoVsHandTest, FuzzedViewLevelStreamsMatch) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed)
    expectSameStream(runHand(Seed, 400, LogLevel::LL_View),
                     runAuto(Seed, 400, LogLevel::LL_View), Seed);
}

TEST(AutoVsHandTest, FuzzedIOLevelStreamsMatch) {
  // At I/O level the brackets and writes vanish on both sides; the
  // call/commit/return skeletons must still coincide.
  for (uint64_t Seed = 100; Seed <= 110; ++Seed)
    expectSameStream(runHand(Seed, 400, LogLevel::LL_IO),
                     runAuto(Seed, 400, LogLevel::LL_IO), Seed);
}

TEST(AutoVsHandTest, AutoStreamPassesTheChecker) {
  // The auto-emitted log is not just identical to the hand one — the
  // KeyValueReplayer consumes its kv records directly.
  BufferedLog L;
  {
    AutoSlotStore S(Hooks(&L, LogLevel::LL_View));
    S.kvSet(1, 10);
    S.kvSet(2, 20);
    S.kvDel(1);
    S.kvDel(7); // absent: permissive failure, auto-committed
  }
  auto Replay = KeyValueReplayer::map("kv");
  View ViewI;
  for (const Action &A : drain(L))
    if (A.Kind == ActionKind::AK_ReplayOp)
      Replay->applyUpdate(A, ViewI);
  View Out;
  Replay->buildView(Out);
  EXPECT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out.countKey(Value(2)), 1u);
}

//===----------------------------------------------------------------------===//
// Auto-layer bracket semantics
//===----------------------------------------------------------------------===//

TEST(AutoSemanticsTest, ObserverEmitsNoCommitAndNoBracket) {
  BufferedLog L;
  AutoSlotStore S(Hooks(&L, LogLevel::LL_View));
  S.get(0);
  std::vector<Action> Log = drain(L);
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0].Kind, ActionKind::AK_Call);
  EXPECT_EQ(Log[1].Kind, ActionKind::AK_Return);
  EXPECT_EQ(Log[1].Ret.asInt(), 0);
}

TEST(AutoSemanticsTest, AutoCommitLandsAfterBracketBeforeReturn) {
  BufferedLog L;
  AutoSlotStore S(Hooks(&L, LogLevel::LL_View));
  S.bump(3);
  std::vector<Action> Log = drain(L);
  // call, blockBegin, write(last), blockEnd, commit, ret.
  ASSERT_EQ(Log.size(), 6u);
  EXPECT_EQ(Log[0].Kind, ActionKind::AK_Call);
  EXPECT_EQ(Log[1].Kind, ActionKind::AK_BlockBegin);
  EXPECT_EQ(Log[2].Kind, ActionKind::AK_Write);
  EXPECT_EQ(Log[2].Var, SlotVocab::get().Last);
  EXPECT_EQ(Log[3].Kind, ActionKind::AK_BlockEnd);
  EXPECT_EQ(Log[4].Kind, ActionKind::AK_Commit);
  EXPECT_EQ(Log[5].Kind, ActionKind::AK_Return);
}

TEST(AutoSemanticsTest, SilentLockOutsideDispatchFrame) {
  // A shim lock taken with no dispatch frame open (constructors, direct
  // raw() access) must not emit brackets.
  BufferedLog L;
  AutoSlotStore S(Hooks(&L, LogLevel::LL_View));
  S.context(); // facade is live; now lock outside any invoke<>
  {
    Mutex Standalone(S.context());
    LockGuard Lock(Standalone);
  }
  EXPECT_TRUE(drain(L).empty());
}

TEST(AutoSemanticsTest, DisabledHooksRunUninstrumented) {
  AutoSlotStore S(Hooks{}); // LL_None: dispatch runs the bare method
  EXPECT_TRUE(S.set(1, 5));
  S.bump(2);
  EXPECT_FALSE(S.kvDel(9));
  EXPECT_EQ(S.get(1), 5);
}

//===----------------------------------------------------------------------===//
// Four producers, four checker threads (the TSan CI configuration)
//===----------------------------------------------------------------------===//

TEST(AutoStressTest, FourProducersFourCheckersClean) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    VerifierConfig VC;
    VC.CheckerThreads = 4;
    Verifier V(VC);
    Hooks HM = V.registerObject(
        "multiset", std::make_unique<multiset::MultisetSpec>(),
        KeyValueReplayer::guardedBag("A"));
    Hooks HQ = V.registerObject("queue",
                                std::make_unique<queue::QueueSpec>(32),
                                KeyValueReplayer::map("q"));
    V.start();

    multiset::ArrayMultiset::Options MO;
    MO.Capacity = 64;
    multiset::ArrayMultiset M(MO, HM);
    queue::BoundedQueue::Options QO;
    QO.Capacity = 32;
    queue::BoundedQueue Q(QO, HQ);

    Chaos::enable(/*Inverse=*/8, Seed);
    std::vector<std::thread> Ts;
    for (int T = 0; T < 4; ++T)
      Ts.emplace_back([&M, &Q, T, Seed] {
        uint64_t R = Seed * 977 + T;
        for (int I = 0; I < 300; ++I) {
          uint64_t Dice = nextRand(R) % 100;
          int64_t K = static_cast<int64_t>(nextRand(R) % 12);
          if (Dice < 25)
            M.insert(K);
          else if (Dice < 40)
            M.remove(K);
          else if (Dice < 55)
            M.lookUp(K);
          else if (Dice < 80)
            Q.offer(K);
          else
            Q.poll();
        }
      });
    for (std::thread &T : Ts)
      T.join();
    Chaos::disable();

    VerifierReport R = V.finish();
    EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.str();
    EXPECT_GT(R.LogRecords, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Chaos determinism (regression: enable() must reset the session)
//===----------------------------------------------------------------------===//

std::vector<bool> chaosDecisions(uint64_t Seed, int N) {
  Chaos::enable(/*Inverse=*/3, Seed);
  std::vector<bool> Bits;
  Bits.reserve(N);
  for (int I = 0; I < N; ++I)
    Bits.push_back(Chaos::point());
  Chaos::disable();
  return Bits;
}

TEST(ChaosDeterminismTest, SameSeedSameDecisionStream) {
  // Two sessions with one seed: the per-thread decision stream restarts
  // identically (the regression was stale per-thread state leaking from
  // the previous session into the next one).
  std::vector<bool> First = chaosDecisions(42, 512);
  std::vector<bool> Second = chaosDecisions(42, 512);
  EXPECT_EQ(First, Second);
  // Sanity: with Inverse=3 the stream is neither all-yield nor no-yield.
  EXPECT_NE(std::count(First.begin(), First.end(), true), 0);
  EXPECT_NE(std::count(First.begin(), First.end(), false), 0);
}

TEST(ChaosDeterminismTest, DifferentSeedsDiverge) {
  EXPECT_NE(chaosDecisions(1, 512), chaosDecisions(2, 512));
}

TEST(ChaosDeterminismTest, InterveningSessionDoesNotShiftTheStream) {
  // The regression scenario: a session runs some points, then a new
  // enable() with the original seed must reproduce the original stream
  // even though this thread consumed part of another session's stream.
  std::vector<bool> Reference = chaosDecisions(7, 256);
  chaosDecisions(1234, 99); // consume an odd number of other decisions
  EXPECT_EQ(chaosDecisions(7, 256), Reference);
}

//===----------------------------------------------------------------------===//
// Thread-id recycling
//===----------------------------------------------------------------------===//

TEST(TidRecyclingTest, ExitedThreadIdIsReused) {
  ThreadId First = 0, Second = 0;
  std::thread A([&] { First = currentTid(); });
  A.join();
  std::thread B([&] { Second = currentTid(); });
  B.join();
  EXPECT_EQ(First, Second);
}

TEST(TidRecyclingTest, SequentialChurnStaysBounded) {
  // One live helper thread at a time: every new thread must adopt the
  // id the previous one released, so the id space never grows.
  ThreadId Baseline = 0;
  std::thread Probe([&] { Baseline = currentTid(); });
  Probe.join();
  for (int I = 0; I < 64; ++I) {
    ThreadId Got = 0;
    std::thread T([&] { Got = currentTid(); });
    T.join();
    EXPECT_EQ(Got, Baseline) << "iteration " << I;
  }
}

TEST(TidRecyclingTest, LiveThreadsGetDistinctIds) {
  constexpr int N = 6;
  std::vector<ThreadId> Ids(N);
  {
    std::vector<std::thread> Ts;
    std::atomic<int> Ready{0};
    for (int I = 0; I < N; ++I)
      Ts.emplace_back([&, I] {
        Ids[I] = currentTid();
        Ready.fetch_add(1);
        // Hold the id until everyone has one, so none is recycled early.
        while (Ready.load() < N)
          std::this_thread::yield();
      });
    for (std::thread &T : Ts)
      T.join();
  }
  std::sort(Ids.begin(), Ids.end());
  EXPECT_EQ(std::unique(Ids.begin(), Ids.end()), Ids.end())
      << "concurrently live threads must never share an id";
}

} // namespace
