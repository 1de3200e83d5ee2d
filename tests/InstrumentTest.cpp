//===- InstrumentTest.cpp - Unit tests for hooks and chaos -----------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/BufferedLog.h"
#include "vyrd/Instrument.h"

#include <gtest/gtest.h>

#include <thread>

using namespace vyrd;

TEST(InstrumentTest, CurrentTidStablePerThread) {
  ThreadId A = currentTid();
  EXPECT_EQ(A, currentTid());
}

TEST(InstrumentTest, CurrentTidDiffersAcrossThreads) {
  ThreadId Main = currentTid();
  ThreadId Other = Main;
  std::thread T([&] { Other = currentTid(); });
  T.join();
  EXPECT_NE(Main, Other);
}

TEST(InstrumentTest, DisabledHooksLogNothing) {
  Hooks H; // no log
  EXPECT_FALSE(H.enabled());
  EXPECT_FALSE(H.viewLevel());
  // None of these may crash or log.
  H.call(internName("m"), {});
  H.commit();
  H.write(internName("v"), Value(1));
  H.ret(internName("m"), Value(true));
}

TEST(InstrumentTest, IOLevelSkipsWritesAndBlocks) {
  BufferedLog L;
  Hooks H(&L, LogLevel::LL_IO);
  Name M = internName("m");
  H.call(M, {Value(1)});
  H.blockBegin();
  H.write(internName("v"), Value(2));
  H.replayOp(internName("op"), {});
  H.commit();
  H.blockEnd();
  H.ret(M, Value(true));
  L.close();
  std::vector<ActionKind> Kinds;
  Action A;
  while (L.next(A))
    Kinds.push_back(A.Kind);
  EXPECT_EQ(Kinds, (std::vector<ActionKind>{ActionKind::AK_Call,
                                            ActionKind::AK_Commit,
                                            ActionKind::AK_Return}));
}

TEST(InstrumentTest, ViewLevelLogsEverything) {
  BufferedLog L;
  Hooks H(&L, LogLevel::LL_View);
  Name M = internName("m");
  H.call(M, {});
  H.blockBegin();
  H.write(internName("v"), Value(2));
  H.commit();
  H.blockEnd();
  H.ret(M, Value(true));
  L.close();
  EXPECT_EQ(L.appendCount(), 6u);
}

TEST(InstrumentTest, MethodScopeLogsCallAndReturn) {
  BufferedLog L;
  Hooks H(&L, LogLevel::LL_IO);
  Name M = internName("scoped");
  {
    MethodScope S(H, M, {Value(7)});
    S.setReturn(Value("done"));
  }
  L.close();
  Action A;
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_Call);
  EXPECT_EQ(A.Args[0], Value(7));
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_Return);
  EXPECT_EQ(A.Ret, Value("done"));
  EXPECT_EQ(A.Method, M);
}

TEST(InstrumentTest, MethodScopeDefaultReturnIsNull) {
  BufferedLog L;
  Hooks H(&L, LogLevel::LL_IO);
  { MethodScope S(H, internName("noret"), {}); }
  L.close();
  Action A;
  ASSERT_TRUE(L.next(A));
  ASSERT_TRUE(L.next(A));
  EXPECT_TRUE(A.Ret.isNull());
}

TEST(InstrumentTest, CommitBlockBrackets) {
  BufferedLog L;
  Hooks H(&L, LogLevel::LL_View);
  { CommitBlock B(H); }
  L.close();
  Action A;
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_BlockBegin);
  ASSERT_TRUE(L.next(A));
  EXPECT_EQ(A.Kind, ActionKind::AK_BlockEnd);
}

TEST(InstrumentTest, ChaosDisabledIsCheap) {
  Chaos::disable();
  for (int I = 0; I < 1000; ++I)
    Chaos::point(); // must not yield or crash
}

TEST(InstrumentTest, ChaosEnableDisable) {
  Chaos::enable(2, 42);
  for (int I = 0; I < 100; ++I)
    Chaos::point();
  Chaos::disable();
}
