//===- FuzzTest.cpp - Randomized robustness sweeps --------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized robustness properties:
///  * the checker survives arbitrary (including ill-formed) action
///    streams without crashing, reporting instrumentation violations
///    instead;
///  * the serializer round-trips arbitrary records exactly and rejects
///    corrupted bytes cleanly;
///  * the incremental View agrees with a reference std::multimap under
///    random mutation sequences.
///
//===----------------------------------------------------------------------===//

#include "harness/Workload.h"
#include "vyrd/Checker.h"
#include "vyrd/Serialize.h"
#include "vyrd/View.h"

#include <gtest/gtest.h>

#include <map>

using namespace vyrd;
using harness::Rng;

namespace {

/// A minimal always-permissive spec for fuzzing: every mutator is
/// enabled, every observer return allowed.
class PermissiveSpec : public Spec {
public:
  PermissiveSpec() : Obs(internName("fuzz.obs")) {}
  bool isObserver(Name Method) const override { return Method == Obs; }
  bool applyMutator(Name, const ValueList &, const Value &,
                    View &) override {
    return true;
  }
  bool returnAllowed(Name, const ValueList &, const Value &) const override {
    return true;
  }
  void buildView(View &Out) const override { Out.clear(); }
  Name Obs;
};

/// A replayer that tolerates any update (tracks nothing).
class PermissiveReplayer : public Replayer {
public:
  void applyUpdate(const Action &, View &) override {}
  void buildView(View &Out) const override { Out.clear(); }
};

Value randomValue(Rng &R) {
  switch (R.range(5)) {
  case 0:
    return Value();
  case 1:
    return Value(R.range(2) == 0);
  case 2:
    return Value(static_cast<int64_t>(R.next()));
  case 3: {
    std::string S;
    for (uint64_t I = 0, N = R.range(12); I < N; ++I)
      S.push_back(static_cast<char>('a' + R.range(26)));
    return Value(S);
  }
  default: {
    Value::Bytes B(R.range(16));
    for (uint8_t &X : B)
      X = static_cast<uint8_t>(R.next());
    return Value(std::move(B));
  }
  }
}

Action randomAction(Rng &R, Name Mut, Name Obs, Name Var) {
  ThreadId T = static_cast<ThreadId>(R.range(4));
  switch (R.range(7)) {
  case 0:
    return Action::call(T, R.range(3) == 0 ? Obs : Mut,
                        {randomValue(R)});
  case 1:
    return Action::ret(T, Mut, randomValue(R));
  case 2:
    return Action::commit(T);
  case 3:
    return Action::write(T, Var, randomValue(R));
  case 4:
    return Action::blockBegin(T);
  case 5:
    return Action::blockEnd(T);
  default:
    return Action::replayOp(T, Var, {randomValue(R), randomValue(R)});
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Checker robustness
//===----------------------------------------------------------------------===//

class CheckerFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckerFuzz, ArbitraryStreamsNeverCrash) {
  Rng R(GetParam());
  Name Mut = internName("fuzz.mut");
  Name Obs = internName("fuzz.obs");
  Name Var = internName("fuzz.var");
  for (CheckMode Mode :
       {CheckMode::CM_IORefinement, CheckMode::CM_ViewRefinement}) {
    PermissiveSpec Spec;
    PermissiveReplayer Replay;
    CheckerConfig CC;
    CC.MaxViolations = 8;
    CC.Mode = Mode;
    RefinementChecker C(Spec, &Replay, CC);
    uint64_t Seq = 0;
    for (int I = 0; I < 400; ++I) {
      Action A = randomAction(R, Mut, Obs, Var);
      A.Seq = Seq++;
      C.feed(A);
    }
    C.finish();
    // Ill-formed streams yield instrumentation reports, never crashes;
    // the checker's own accounting stays consistent.
    EXPECT_LE(C.violations().size(), 8u);
    for (const Violation &V : C.violations())
      EXPECT_FALSE(V.str().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerFuzz,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// Serializer round-trip / rejection
//===----------------------------------------------------------------------===//

class SerializeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzz, RandomRecordsRoundTripExactly) {
  Rng R(GetParam() * 131 + 7);
  Name Mut = internName("fuzz.mut");
  Name Obs = internName("fuzz.obs");
  Name Var = internName("fuzz.var");
  std::vector<Action> Script;
  for (int I = 0; I < 200; ++I) {
    Action A = randomAction(R, Mut, Obs, Var);
    A.Seq = static_cast<uint64_t>(I);
    Script.push_back(std::move(A));
  }
  ActionEncoder Enc;
  ByteWriter W;
  for (const Action &A : Script)
    Enc.encode(A, W);

  ByteReader Rd(W.buffer().data(), W.size());
  ActionDecoder Dec;
  for (const Action &Expected : Script) {
    Action Got;
    ASSERT_TRUE(Dec.decode(Rd, Got));
    EXPECT_EQ(Got.Kind, Expected.Kind);
    EXPECT_EQ(Got.Tid, Expected.Tid);
    EXPECT_EQ(Got.Seq, Expected.Seq);
    EXPECT_EQ(Got.Method, Expected.Method);
    EXPECT_EQ(Got.Var, Expected.Var);
    EXPECT_EQ(Got.Ret, Expected.Ret);
    EXPECT_EQ(Got.Ret, Expected.Ret);
    ASSERT_EQ(Got.Args.size(), Expected.Args.size());
    for (size_t I = 0; I < Got.Args.size(); ++I)
      EXPECT_EQ(Got.Args[I], Expected.Args[I]);
  }
  EXPECT_TRUE(Rd.atEnd());
}

TEST_P(SerializeFuzz, CorruptedBytesRejectedCleanly) {
  Rng R(GetParam() * 977 + 3);
  // Encode a few records, then corrupt one byte and decode everything:
  // the decoder must either keep decoding valid records or return false,
  // never crash or loop.
  Name Mut = internName("fuzz.mut");
  ActionEncoder Enc;
  ByteWriter W;
  for (int I = 0; I < 20; ++I) {
    Action A = Action::call(0, Mut, {randomValue(R)});
    Enc.encode(A, W);
  }
  std::vector<uint8_t> Bytes = W.buffer();
  Bytes[R.range(Bytes.size())] ^= static_cast<uint8_t>(1 + R.range(255));

  ByteReader Rd(Bytes.data(), Bytes.size());
  ActionDecoder Dec;
  Action Out;
  int Decoded = 0;
  while (!Rd.atEnd() && Dec.decode(Rd, Out) && Decoded < 1000)
    ++Decoded;
  EXPECT_LE(Decoded, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz,
                         ::testing::Range<uint64_t>(1, 21));

//===----------------------------------------------------------------------===//
// View vs reference differential
//===----------------------------------------------------------------------===//

class ViewFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ViewFuzz, AgreesWithReferenceMultiset) {
  Rng R(GetParam() * 31337 + 11);
  // D is the digest-only twin the checker uses; it only ever removes
  // entries that were added (its contract).
  View V, D = View::digestOnly();
  std::map<std::pair<int64_t, int64_t>, size_t> Ref;
  size_t RefTotal = 0;

  for (int I = 0; I < 2000; ++I) {
    int64_t K = static_cast<int64_t>(R.range(12));
    int64_t Val = static_cast<int64_t>(R.range(4));
    if (R.percent(55)) {
      V.add(Value(K), Value(Val));
      D.add(Value(K), Value(Val));
      ++Ref[{K, Val}];
      ++RefTotal;
    } else {
      bool Removed = V.remove(Value(K), Value(Val));
      auto It = Ref.find({K, Val});
      EXPECT_EQ(Removed, It != Ref.end());
      if (It != Ref.end()) {
        D.remove(Value(K), Value(Val));
        if (--It->second == 0)
          Ref.erase(It);
        --RefTotal;
      }
    }
  }

  EXPECT_EQ(V.size(), RefTotal);
  EXPECT_EQ(D.size(), RefTotal);

  // A fresh view with identical contents must compare equal by digest.
  View Fresh;
  for (const auto &[KV, N] : Ref)
    for (size_t I = 0; I < N; ++I)
      Fresh.add(Value(KV.first), Value(KV.second));
  EXPECT_EQ(V, Fresh);
  EXPECT_EQ(D, Fresh) << "digest-only twin must land on the same digest";
  EXPECT_TRUE(V.deepEquals(Fresh));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewFuzz,
                         ::testing::Range<uint64_t>(1, 21));
