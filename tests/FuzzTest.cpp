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
///  * Value agrees with a std::variant reference model on order,
///    equality and hash, and survives copies and moves unchanged;
///  * the incremental View agrees with a reference std::multimap under
///    random mutation sequences.
///
//===----------------------------------------------------------------------===//

#include "harness/Workload.h"
#include "vyrd/Checker.h"
#include "vyrd/Serialize.h"
#include "vyrd/View.h"

#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

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

/// A corrupted length far beyond the input is rejected before anything is
/// allocated for it, for both payload kinds.
TEST(SerializeCorruption, OversizedPayloadLengthIsRejected) {
  for (ValueKind K : {ValueKind::VK_Str, ValueKind::VK_Bytes}) {
    ByteWriter W;
    W.u8(static_cast<uint8_t>(K));
    W.varint(uint64_t{1} << 62);
    W.bytes("abc", 3);
    ByteReader R(W.buffer().data(), W.size());
    Value V;
    ASSERT_NO_THROW(V = readValue(R));
    EXPECT_FALSE(R.ok());
    EXPECT_TRUE(V.isNull());
  }
}

//===----------------------------------------------------------------------===//
// Value vs reference model
//===----------------------------------------------------------------------===//

namespace {

/// Reference model of Value: a std::variant over the five kinds, whose
/// built-in order (by alternative, then lexicographic on unsigned bytes)
/// and equality are the ones Value promises, and an independent
/// implementation of Value's documented hash.
using RefValue = std::variant<std::monostate, bool, int64_t, std::string,
                              std::vector<uint8_t>>;

uint64_t refMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

uint64_t refHashBytes(const uint8_t *P, size_t N, uint64_t Seed) {
  uint64_t H = 14695981039346656037ULL ^ Seed;
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 1099511628211ULL;
  }
  return refMix(H);
}

uint64_t refHash(const RefValue &R) {
  uint64_t Tag = static_cast<uint64_t>(R.index()) << 56;
  switch (R.index()) {
  case 0:
    return refMix(Tag);
  case 1:
    return refMix(Tag | (std::get<bool>(R) ? 1 : 0));
  case 2:
    return refMix(Tag ^ static_cast<uint64_t>(std::get<int64_t>(R)));
  case 3: {
    const std::string &S = std::get<std::string>(R);
    return refHashBytes(reinterpret_cast<const uint8_t *>(S.data()),
                        S.size(), Tag | 0x51);
  }
  default: {
    const std::vector<uint8_t> &B = std::get<std::vector<uint8_t>>(R);
    return refHashBytes(B.data(), B.size(), Tag | 0x52);
  }
  }
}

Value fromRef(const RefValue &R) {
  return std::visit(
      [](const auto &X) -> Value {
        using T = std::decay_t<decltype(X)>;
        if constexpr (std::is_same_v<T, std::monostate>)
          return Value();
        else
          return Value(X);
      },
      R);
}

/// Small domains so that equal values and shared prefixes are common;
/// lengths straddle every small-size boundary up to 40 bytes.
RefValue randomRef(Rng &R) {
  switch (R.range(5)) {
  case 0:
    return std::monostate{};
  case 1:
    return R.range(2) == 0;
  case 2: {
    static const int64_t Ints[] = {INT64_MIN, -1, 0, 1, 42, INT64_MAX};
    return R.range(2) ? Ints[R.range(6)]
                      : static_cast<int64_t>(R.next());
  }
  case 3: {
    std::string S(R.range(3) ? R.range(4) : R.range(41), '\0');
    for (char &C : S)
      C = static_cast<char>(R.range(3) ? 'a' + R.range(2) : R.range(256));
    return S;
  }
  default: {
    std::vector<uint8_t> B(R.range(3) ? R.range(4) : R.range(41));
    for (uint8_t &X : B)
      X = static_cast<uint8_t>(R.range(3) ? R.range(2) : R.range(256));
    return B;
  }
  }
}

} // namespace

class ValueFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueFuzz, AgreesWithVariantReferenceModel) {
  Rng R(GetParam() * 7919 + 5);
  std::vector<RefValue> Refs;
  std::vector<Value> Vals;
  for (int I = 0; I < 96; ++I) {
    Refs.push_back(randomRef(R));
    Vals.push_back(fromRef(Refs.back()));
  }

  for (size_t I = 0; I < Vals.size(); ++I) {
    EXPECT_EQ(static_cast<size_t>(Vals[I].kind()), Refs[I].index());
    EXPECT_EQ(Vals[I].hash(), refHash(Refs[I])) << Vals[I].str();
    for (size_t J = 0; J < Vals.size(); ++J) {
      EXPECT_EQ(Vals[I] < Vals[J], Refs[I] < Refs[J])
          << Vals[I].str() << " < " << Vals[J].str();
      EXPECT_EQ(Vals[I] == Vals[J], Refs[I] == Refs[J])
          << Vals[I].str() << " == " << Vals[J].str();
    }
  }

  // Copies and moves, through every constructor and assignment, and
  // through ValueLists, must land on values equal to the original.
  for (size_t I = 0; I < Vals.size(); ++I) {
    const Value &Orig = Vals[I];
    Value Copy(Orig);
    EXPECT_EQ(Copy, Orig);
    EXPECT_EQ(Copy.hash(), Orig.hash());
    Value Moved(std::move(Copy));
    EXPECT_EQ(Moved, Orig);
    Value Assigned = Vals[(I + 1) % Vals.size()];
    Assigned = Orig;
    EXPECT_EQ(Assigned, Orig);
    Value MoveAssigned = Vals[(I + 2) % Vals.size()];
    MoveAssigned = std::move(Moved);
    EXPECT_EQ(MoveAssigned, Orig);
    EXPECT_EQ(MoveAssigned.str(), Orig.str());
    Value &Self = Assigned;
    Assigned = Self;
    EXPECT_EQ(Assigned, Orig);

    ValueList L = {Orig, Vals[(I + 3) % Vals.size()]};
    if (R.range(2))
      L.push_back(Vals[(I + 4) % Vals.size()]); // Spill to the heap.
    ValueList LCopy(L);
    ValueList LMoved(std::move(LCopy));
    EXPECT_EQ(LMoved, L);
    EXPECT_EQ(LMoved[0], Orig);
  }
  // The originals are unchanged by everything above.
  for (size_t I = 0; I < Vals.size(); ++I)
    EXPECT_EQ(Vals[I], fromRef(Refs[I]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueFuzz,
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
