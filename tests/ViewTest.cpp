//===- ViewTest.cpp - Unit tests for incremental views ---------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "vyrd/View.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>

using namespace vyrd;
using namespace vyrd::test;

TEST(ViewTest, EmptyViewsAreEqual) {
  View A, B;
  EXPECT_EQ(A, B);
  EXPECT_TRUE(A.deepEquals(B));
  EXPECT_TRUE(A.empty());
}

TEST(ViewTest, AddMakesUnequal) {
  View A, B;
  A.add(Value(1), Value("x"));
  EXPECT_NE(A, B);
  EXPECT_FALSE(A.deepEquals(B));
  EXPECT_EQ(A.size(), 1u);
}

TEST(ViewTest, OrderInsensitiveHash) {
  View A, B;
  for (int I = 0; I < 20; ++I)
    A.add(Value(I), Value(I * 10));
  for (int I = 19; I >= 0; --I)
    B.add(Value(I), Value(I * 10));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.digest(), B.digest());
  EXPECT_TRUE(A.deepEquals(B));
}

TEST(ViewTest, AddRemoveRestoresDigest) {
  View A;
  A.add(Value(1), Value());
  auto D0 = A.digest();
  A.add(Value(2), Value("y"));
  EXPECT_NE(A.digest(), D0);
  EXPECT_TRUE(A.remove(Value(2), Value("y")));
  EXPECT_EQ(A.digest(), D0);
  EXPECT_EQ(A.size(), 1u);
}

TEST(ViewTest, RemoveAbsentReturnsFalseAndKeepsState) {
  View A;
  A.add(Value(1), Value());
  auto D = A.digest();
  EXPECT_FALSE(A.remove(Value(2), Value()));
  EXPECT_FALSE(A.remove(Value(1), Value("other")));
  EXPECT_EQ(A.digest(), D);
  EXPECT_EQ(A.size(), 1u);
}

TEST(ViewTest, MultiplicityIsTracked) {
  View A, B;
  A.add(Value(5), Value());
  A.add(Value(5), Value());
  B.add(Value(5), Value());
  EXPECT_NE(A, B) << "multiset: {5,5} != {5}";
  EXPECT_TRUE(A.deepEquals(viewOf({{Value(5), Value()}, {Value(5), Value()}})));
  B.add(Value(5), Value());
  EXPECT_EQ(A, B);
}

TEST(ViewTest, ClearResetsToEmpty) {
  View A, Empty;
  for (int I = 0; I < 10; ++I)
    A.add(Value(I), Value());
  A.clear();
  EXPECT_EQ(A, Empty);
  EXPECT_TRUE(A.deepEquals(Empty));

  View D = View::digestOnly();
  D.add(Value(1), Value());
  D.clear();
  EXPECT_EQ(D, Empty);
  EXPECT_FALSE(D.materialised()) << "clear keeps a view digest-only";
}

TEST(ViewTest, DigestMatchesFreshlyBuiltEquivalent) {
  // Incremental mutations of a digest-only view must land exactly where a
  // from-scratch build of the same net content lands (the checker's
  // compare path and audit rely on this).
  View Inc = View::digestOnly(), Ref;
  std::map<std::pair<int, int>, size_t> Net;
  for (int I = 0; I < 50; ++I) {
    Inc.add(Value(I % 7), Value(I % 3));
    Ref.add(Value(I % 7), Value(I % 3));
    ++Net[{I % 7, I % 3}];
  }
  for (int I = 0; I < 25; ++I) {
    EXPECT_TRUE(Inc.remove(Value(I % 7), Value(I % 3)));
    EXPECT_TRUE(Ref.remove(Value(I % 7), Value(I % 3)));
    --Net[{I % 7, I % 3}];
  }

  // Build the same net content from scratch, in another order.
  View Fresh;
  for (auto It = Net.rbegin(); It != Net.rend(); ++It)
    for (size_t I = 0; I < It->second; ++I)
      Fresh.add(Value(It->first.first), Value(It->first.second));
  EXPECT_EQ(Inc, Fresh);
  EXPECT_EQ(Inc.size(), 25u);
  EXPECT_TRUE(Ref.deepEquals(Fresh));
}

TEST(ViewTest, DigestOnlyViewEqualsMaterialisedView) {
  View Inc = View::digestOnly();
  Inc.add(Value(1), Value("a"));
  Inc.add(Value(1), Value("b"));
  Inc.add(Value(2), Value("c"));
  Inc.remove(Value(1), Value("a"));
  EXPECT_FALSE(Inc.materialised());
  EXPECT_EQ(Inc, viewOf({{Value(1), Value("b")}, {Value(2), Value("c")}}));
  EXPECT_NE(Inc, viewOf({{Value(1), Value("a")}, {Value(2), Value("c")}}));
}

TEST(ViewTest, DigestOnlySeedCarriesTheDigest) {
  View Seed = viewOf({{Value(3), Value("x")}, {Value(4), Value("y")}});
  View D = View::digestOnly(Seed);
  EXPECT_EQ(D, Seed);
  EXPECT_EQ(D.size(), 2u);
  EXPECT_FALSE(D.materialised());
  D.remove(Value(4), Value("y"));
  EXPECT_EQ(D, viewOf({{Value(3), Value("x")}}));
}

TEST(ViewTest, DigestOnlyRemoveOfAbsentEntryDrifts) {
  // The contract is "remove only an entry you added": a digest-only view
  // cannot tell, so the removal lands in the digest, which then matches
  // no real view (the checker reports such drift as an instrumentation
  // fault once it rebuilds the views).
  View D = View::digestOnly();
  D.add(Value(1), Value());
  EXPECT_TRUE(D.remove(Value(2), Value()));
  EXPECT_NE(D, viewOf({{Value(1), Value()}}));
  EXPECT_NE(D, View());
}

TEST(ViewTest, DiffReportsBothSides) {
  View L, R;
  L.add(Value(1), Value("only-in-l"));
  R.add(Value(2), Value("only-in-r"));
  L.add(Value(3), Value("shared"));
  R.add(Value(3), Value("shared"));
  std::string D = View::diff(L, R);
  EXPECT_NE(D.find("only-left(1)"), std::string::npos) << D;
  EXPECT_NE(D.find("only-right(1)"), std::string::npos) << D;
  EXPECT_EQ(D.find("shared"), std::string::npos) << D;
}

TEST(ViewTest, DiffOfEqualViewsSaysIdentical) {
  View L, R;
  L.add(Value(1), Value());
  R.add(Value(1), Value());
  EXPECT_EQ(View::diff(L, R), "views identical");
}

TEST(ViewTest, DiffCountsMultiplicityDifferences) {
  View L, R;
  L.add(Value(1), Value());
  L.add(Value(1), Value());
  R.add(Value(1), Value());
  std::string D = View::diff(L, R);
  EXPECT_NE(D.find("only-left"), std::string::npos) << D;
  EXPECT_NE(D.find("only-right"), std::string::npos) << D;
}

TEST(ViewTest, StrShowsEntriesAndSize) {
  View A;
  A.add(Value(7), Value("v"));
  std::string S = A.str();
  EXPECT_NE(S.find("7->"), std::string::npos) << S;
  EXPECT_NE(S.find("(1 entries)"), std::string::npos) << S;
}

TEST(ViewTest, HashSecondAccumulatorCatchesSwaps) {
  // Two different multisets engineered to have the same size; the double
  // accumulator must still distinguish them.
  View A, B;
  A.add(Value(1), Value(2));
  A.add(Value(3), Value(4));
  B.add(Value(1), Value(4));
  B.add(Value(3), Value(2));
  EXPECT_NE(A, B);
}
