//===- ValueTest.cpp - Unit tests for vyrd::Value --------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace vyrd;

TEST(ValueTest, DefaultIsNull) {
  Value V;
  EXPECT_TRUE(V.isNull());
  EXPECT_EQ(V.kind(), ValueKind::VK_Null);
}

TEST(ValueTest, BoolRoundTrip) {
  Value T(true), F(false);
  EXPECT_TRUE(T.isBool());
  EXPECT_TRUE(T.asBool());
  EXPECT_FALSE(F.asBool());
  EXPECT_NE(T, F);
}

TEST(ValueTest, IntRoundTrip) {
  Value V(int64_t{-42});
  EXPECT_TRUE(V.isInt());
  EXPECT_EQ(V.asInt(), -42);
}

TEST(ValueTest, IntFromVariousWidths) {
  EXPECT_EQ(Value(7).asInt(), 7);
  EXPECT_EQ(Value(7u).asInt(), 7);
  EXPECT_EQ(Value(uint64_t{7}).asInt(), 7);
}

TEST(ValueTest, StringRoundTrip) {
  Value V(std::string("hello"));
  EXPECT_TRUE(V.isStr());
  EXPECT_EQ(V.asStr(), "hello");
  EXPECT_EQ(Value("hello"), V);
}

TEST(ValueTest, BytesRoundTrip) {
  Value::Bytes B = {1, 2, 3, 255};
  Value V(B);
  EXPECT_TRUE(V.isBytes());
  EXPECT_TRUE(std::ranges::equal(V.asBytes(), B));
}

TEST(ValueTest, BytesValueHelper) {
  uint8_t Raw[] = {9, 8, 7};
  Value V = bytesValue(Raw, 3);
  ASSERT_TRUE(V.isBytes());
  EXPECT_EQ(V.asBytes().size(), 3u);
  EXPECT_EQ(V.asBytes()[0], 9);
}

TEST(ValueTest, EqualityDistinguishesKinds) {
  // int 1 != bool true != string "1"
  EXPECT_NE(Value(int64_t{1}), Value(true));
  EXPECT_NE(Value(int64_t{1}), Value("1"));
  EXPECT_NE(Value(true), Value("true"));
}

TEST(ValueTest, OrderingIsStrictWeak) {
  std::vector<Value> Vs = {Value(),      Value(false),    Value(true),
                           Value(-5),    Value(10),       Value("a"),
                           Value("b"),   Value(Value::Bytes{1})};
  for (size_t I = 0; I < Vs.size(); ++I)
    for (size_t J = 0; J < Vs.size(); ++J) {
      if (I == J) {
        EXPECT_FALSE(Vs[I] < Vs[J]);
      } else {
        EXPECT_TRUE((Vs[I] < Vs[J]) != (Vs[J] < Vs[I]))
            << "exactly one order between " << Vs[I].str() << " and "
            << Vs[J].str();
      }
    }
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_TRUE(Value() < Value(false));
  EXPECT_TRUE(Value() < Value(int64_t{INT64_MIN}));
  EXPECT_TRUE(Value() < Value(""));
}

TEST(ValueTest, HashEqualForEqualValues) {
  EXPECT_EQ(Value(42).hash(), Value(42).hash());
  EXPECT_EQ(Value("xyz").hash(), Value("xyz").hash());
  EXPECT_EQ(Value(Value::Bytes{1, 2}).hash(),
            Value(Value::Bytes{1, 2}).hash());
}

TEST(ValueTest, HashDistinguishesKindsAndContents) {
  std::set<uint64_t> Hashes;
  Hashes.insert(Value().hash());
  Hashes.insert(Value(false).hash());
  Hashes.insert(Value(true).hash());
  Hashes.insert(Value(0).hash());
  Hashes.insert(Value(1).hash());
  Hashes.insert(Value("").hash());
  Hashes.insert(Value("0").hash());
  Hashes.insert(Value(Value::Bytes{}).hash());
  Hashes.insert(Value(Value::Bytes{0}).hash());
  EXPECT_EQ(Hashes.size(), 9u) << "hash collisions across simple values";
}

TEST(ValueTest, StrRendering) {
  EXPECT_EQ(Value().str(), "null");
  EXPECT_EQ(Value(true).str(), "true");
  EXPECT_EQ(Value(-3).str(), "-3");
  EXPECT_EQ(Value("hi").str(), "\"hi\"");
  EXPECT_EQ(Value(Value::Bytes{0xAB}).str(), "bytes[1]:ab");
}

TEST(ValueTest, LongBytesRenderingTruncates) {
  Value::Bytes B(20, 0x11);
  std::string S = Value(B).str();
  EXPECT_NE(S.find("bytes[20]:"), std::string::npos);
  EXPECT_NE(S.find(".."), std::string::npos);
}

static std::string quoted(const std::string &S) {
  std::string Out = "\"";
  Out += S;
  Out += '"';
  return Out;
}

/// Golden hash() and str() results, and the full pairwise order, for one
/// value of every kind and size class. View digests, diff text and
/// snapshot blobs are built from these, so a change of Value's storage
/// must reproduce them bit for bit.
TEST(ValueTest, HashOrderAndStrArePinned) {
  Value::Bytes Nul = {0x00, 0x41, 0x00, 0xff};
  Value::Bytes KiB(1024);
  for (size_t I = 0; I < KiB.size(); ++I)
    KiB[I] = static_cast<uint8_t>(I * 7 + 3);

  struct Golden {
    Value V;
    uint64_t Hash;
    std::string Str;
  };
  // Listed in ascending order: kind first, then value; strings and bytes
  // compare as unsigned bytes, a prefix before its extensions.
  const std::vector<Golden> Gs = {
      {Value(), 0xe220a8397b1dcdafULL, "null"},
      {Value(false), 0xc9ed992411bbb661ULL, "false"},
      {Value(true), 0xfaf7e95b9ae8aec2ULL, "true"},
      {Value(int64_t{INT64_MIN}), 0xf9261c0b19b8129eULL,
       "-9223372036854775808"},
      {Value(int64_t{-1}), 0xecb34fbeea0aee04ULL, "-1"},
      {Value(int64_t{0}), 0xe9fb109b840134ffULL, "0"},
      {Value(int64_t{42}), 0x420412ad9d581042ULL, "42"},
      {Value(int64_t{INT64_MAX}), 0xaad8b0ef5cfcc566ULL,
       "9223372036854775807"},
      {Value(""), 0x2c81e3a222c1bcabULL, "\"\""},
      {Value("a"), 0x076b1fc02b60d1d6ULL, "\"a\""},
      {Value("ab"), 0xdc0b69e6a0e04cbcULL, "\"ab\""},
      {Value(std::string(15, 'x')), 0xb61956782eb22930ULL,
       quoted(std::string(15, 'x'))},
      {Value(std::string(16, 'y')), 0x19b73a48776cd84dULL,
       quoted(std::string(16, 'y'))},
      {Value(std::string(64, 'z')), 0xd3c601e7edbe7dbeULL,
       quoted(std::string(64, 'z'))},
      {Value("\x80"), 0xccb3ebb720cb5c68ULL, "\"\x80\""},
      {Value(Value::Bytes{}), 0x2a8c46eedec2364bULL, "bytes[0]:"},
      {Value(Value::Bytes{0}), 0xc56a30b7b80170a6ULL, "bytes[1]:00"},
      {Value(Nul), 0x2c2191fe72ff9542ULL, "bytes[4]:004100ff"},
      {Value(KiB), 0xb9279b298c68fdabULL, "bytes[1024]:030a11181f262d34.."},
      {Value(Value::Bytes{0x80}), 0x5ebe786192ad3e62ULL, "bytes[1]:80"},
  };
  for (const Golden &G : Gs) {
    EXPECT_EQ(G.V.hash(), G.Hash) << G.Str;
    EXPECT_EQ(G.V.str(), G.Str);
  }
  for (size_t I = 0; I < Gs.size(); ++I)
    for (size_t J = 0; J < Gs.size(); ++J) {
      EXPECT_EQ(Gs[I].V < Gs[J].V, I < J) << Gs[I].Str << " < " << Gs[J].Str;
      EXPECT_EQ(Gs[I].V == Gs[J].V, I == J)
          << Gs[I].Str << " == " << Gs[J].Str;
      EXPECT_EQ(Gs[I].V != Gs[J].V, I != J);
    }
}

/// Copies of one Value share its payload blob across threads: four
/// threads copy a 1 KiB bytes Value and a ValueList holding it at the
/// same time, then every copy, and the original, die concurrently. The
/// blob must be freed exactly once, after its last reader (checked under
/// TSan and ASan, which run every test).
TEST(ValueTest, SharedPayloadCopiesDieOnManyThreads) {
  Value::Bytes KiB(1024);
  for (size_t I = 0; I < KiB.size(); ++I)
    KiB[I] = static_cast<uint8_t>(I * 13 + 1);
  auto Original = std::make_unique<Value>(KiB);
  auto OriginalList =
      std::make_unique<ValueList>(ValueList{*Original, Value(7)});
  const uint64_t Hash = Original->hash();

  constexpr int Threads = 4;
  constexpr int Copies = 500;
  std::atomic<int> Copied{0};
  std::atomic<bool> Release{false};
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      std::vector<Value> Vs;
      std::vector<ValueList> Ls;
      for (int I = 0; I < Copies; ++I) {
        Vs.push_back(*Original);
        Ls.push_back(*OriginalList);
      }
      for (int I = 0; I < Copies; I += 97)
        if (Vs[I].hash() != Hash || Ls[I][0] != Vs[I] ||
            !std::ranges::equal(Vs[I].asBytes(), KiB))
          Mismatches.fetch_add(1);
      Copied.fetch_add(1);
      while (!Release.load())
        std::this_thread::yield();
      Vs.clear();
      Ls.clear();
    });
  while (Copied.load() < Threads)
    std::this_thread::yield();
  Release.store(true);
  Original.reset();
  OriginalList.reset();
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

//===----------------------------------------------------------------------===//
// ValueList small-buffer behavior
//===----------------------------------------------------------------------===//

TEST(ValueListTest, SmallListsStayInline) {
  ValueList L;
  EXPECT_TRUE(L.inlined());
  EXPECT_TRUE(L.empty());
  for (size_t I = 0; I < ValueList::InlineCapacity; ++I)
    L.push_back(Value(int64_t(I)));
  EXPECT_TRUE(L.inlined()) << "InlineCapacity values must not spill";
  EXPECT_EQ(L.size(), ValueList::InlineCapacity);
  for (size_t I = 0; I < L.size(); ++I)
    EXPECT_EQ(L[I].asInt(), int64_t(I));
}

TEST(ValueListTest, SpillsBeyondInlineCapacity) {
  ValueList L;
  for (int I = 0; I < 7; ++I)
    L.push_back(Value(I));
  EXPECT_FALSE(L.inlined());
  EXPECT_EQ(L.size(), 7u);
  for (int I = 0; I < 7; ++I)
    EXPECT_EQ(L[I].asInt(), I);
  EXPECT_EQ(L.front().asInt(), 0);
  EXPECT_EQ(L.back().asInt(), 6);
}

TEST(ValueListTest, ClearKeepsStorage) {
  ValueList L;
  for (int I = 0; I < 7; ++I)
    L.push_back(Value(std::string("payload-") + std::to_string(I)));
  size_t Cap = L.capacity();
  L.clear();
  EXPECT_TRUE(L.empty());
  EXPECT_EQ(L.capacity(), Cap) << "clear must keep a spilled buffer";
  for (int I = 0; I < 7; ++I)
    L.push_back(Value(I));
  EXPECT_EQ(L.capacity(), Cap) << "refill within capacity must not grow";
  EXPECT_EQ(L.size(), 7u);
}

TEST(ValueListTest, CopyPreservesContents) {
  ValueList Small = {Value(1), Value("two")};
  ValueList SmallCopy(Small);
  EXPECT_EQ(SmallCopy, Small);
  EXPECT_TRUE(SmallCopy.inlined());

  ValueList Big;
  for (int I = 0; I < 9; ++I)
    Big.push_back(Value(I));
  ValueList BigCopy(Big);
  EXPECT_EQ(BigCopy, Big);

  // Copy-assign a small list over a spilled one: the recycled buffer must
  // not leave stale elements visible.
  BigCopy = Small;
  EXPECT_EQ(BigCopy, Small);
  EXPECT_EQ(BigCopy.size(), 2u);
}

TEST(ValueListTest, MoveAdoptsHeapBuffer) {
  ValueList Big;
  for (int I = 0; I < 9; ++I)
    Big.push_back(Value(std::string("elem-") + std::to_string(I)));
  ValueList Expect(Big);

  // Move into a list whose inline slots are in use: the payloads must be
  // released and the spilled buffer adopted wholesale.
  ValueList Dst = {Value("stale-a"), Value("stale-b")};
  Dst = std::move(Big);
  EXPECT_EQ(Dst, Expect);
  EXPECT_FALSE(Dst.inlined());
  EXPECT_TRUE(Big.empty()); // NOLINT: moved-from is specified empty
}

TEST(ValueListTest, MoveOfInlineListKeepsDestinationStorage) {
  ValueList Dst;
  for (int I = 0; I < 9; ++I)
    Dst.push_back(Value(I));
  size_t Cap = Dst.capacity();
  ValueList Src = {Value(7), Value(8)};
  Dst = std::move(Src);
  EXPECT_EQ(Dst.size(), 2u);
  EXPECT_EQ(Dst[0].asInt(), 7);
  EXPECT_EQ(Dst[1].asInt(), 8);
  EXPECT_EQ(Dst.capacity(), Cap)
      << "moving an inline list must reuse the recycled heap buffer";
}

TEST(ValueListTest, EqualityIsOrderAndLengthSensitive) {
  ValueList A = {Value(1), Value("x")};
  ValueList B = {Value(1), Value("x")};
  ValueList C = {Value("x"), Value(1)};
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C) << "order matters";

  // Inline vs spilled representation of the same contents must agree.
  ValueList Spilled;
  for (int I = 0; I < 5; ++I)
    Spilled.push_back(Value(I));
  for (int I = 0; I < 3; ++I)
    Spilled.pop_back();
  ValueList Inline = {Value(0), Value(1)};
  EXPECT_EQ(Spilled, Inline);

  // Length participates: a prefix is a different list.
  ValueList Prefix = {Value(0)};
  EXPECT_NE(Prefix, Inline);
  EXPECT_NE(ValueList(), Prefix);
}

TEST(ValueListTest, PopBackReleasesPayload) {
  ValueList L = {Value("keep"), Value("drop")};
  L.pop_back();
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0].asStr(), "keep");
  L.push_back(Value(3));
  EXPECT_EQ(L.back().asInt(), 3) << "recycled slot must read as the new value";
}
