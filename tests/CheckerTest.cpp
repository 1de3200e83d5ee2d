//===- CheckerTest.cpp - Unit tests for the refinement checker ------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the checker on scripted logs against a tiny register
/// specification: Set(x) and Cas(a, b) are mutators (state := x; state :=
/// b iff it is a), Get() an observer returning the state. The scripts
/// mirror the paper's figures: witness ordering by commit actions
/// (Fig. 3), the observer window rule (Fig. 7), commit-block atomicity
/// (Sec. 5.2) and commit-point diagnosis (Sec. 4.1).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "vyrd/Checker.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::test;

namespace {

/// Tiny register spec: Set(x) -> true sets the state; Cas(a, b) -> true
/// sets it to b iff it is a; Get() -> x allowed iff x is the current
/// state. View: one ("reg", state) entry.
class RegisterSpec : public Spec {
public:
  RegisterSpec()
      : SetM(name("Set")), CasM(name("Cas")), GetM(name("Get")),
        State(Value(0)) {}

  bool isObserver(Name Method) const override { return Method == GetM; }

  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &ViewS) override {
    if (!Ret.isBool() || !Ret.asBool())
      return false;
    bool IsSet = Method == SetM && Args.size() == 1;
    bool IsCas = Method == CasM && Args.size() == 2 && State == Args[0];
    if (!IsSet && !IsCas)
      return false;
    ViewS.remove(Value("reg"), State);
    State = Args.back();
    ViewS.add(Value("reg"), State);
    return true;
  }

  bool returnAllowed(Name Method, const ValueList &,
                     const Value &Ret) const override {
    return Method == GetM && Ret == State;
  }

  void buildView(View &Out) const override {
    Out.clear();
    Out.add(Value("reg"), State);
  }

  Name SetM, CasM, GetM;
  Value State;
};

/// Shadow: replays writes to variable "reg".
class RegisterReplayer : public Replayer {
public:
  RegisterReplayer() : RegVar(name("reg")), State(Value(0)) {}

  void applyUpdate(const Action &A, View &ViewI) override {
    ASSERT_EQ(A.Var, RegVar);
    ViewI.remove(Value("reg"), State);
    State = A.Ret;
    ViewI.add(Value("reg"), State);
  }

  void buildView(View &Out) const override {
    Out.clear();
    Out.add(Value("reg"), State);
  }

  bool checkInvariants(std::string &Message) const override {
    if (FailInvariant) {
      Message = "forced invariant failure";
      return false;
    }
    return true;
  }

  Name RegVar;
  Value State;
  bool FailInvariant = false;
};

/// Replays every write into its shadow but skips the view update of the
/// SkipAt-th one, so its incremental digest drifts from buildView while
/// the shadow state stays right.
class DriftingReplayer : public RegisterReplayer {
public:
  void applyUpdate(const Action &A, View &ViewI) override {
    View Discard = View::digestOnly();
    RegisterReplayer::applyUpdate(A, ++Applied == SkipAt ? Discard : ViewI);
  }

  unsigned SkipAt = 2;
  unsigned Applied = 0;
};

struct Fixture {
  RegisterSpec Spec;
  RegisterReplayer Replay;
  Name Set = name("Set");
  Name Cas = name("Cas");
  Name Get = name("Get");
  Name Reg = name("reg");

  std::unique_ptr<RefinementChecker> make(CheckMode Mode,
                                          CheckerConfig Extra = {}) {
    Extra.Mode = Mode;
    return std::make_unique<RefinementChecker>(
        Spec, Mode == CheckMode::CM_ViewRefinement ? &Replay : nullptr,
        Extra);
  }

  /// A full, correct Set(x) execution by thread T with the write inside a
  /// commit block.
  std::vector<Action> setOk(ThreadId T, int64_t X) {
    return {Action::call(T, Set, {Value(X)}),
            Action::blockBegin(T),
            Action::write(T, Reg, Value(X)),
            Action::commit(T),
            Action::blockEnd(T),
            Action::ret(T, Set, Value(true))};
  }
};

std::vector<Action> concat(std::initializer_list<std::vector<Action>> Ls) {
  std::vector<Action> Out;
  for (const auto &L : Ls)
    Out.insert(Out.end(), L.begin(), L.end());
  return Out;
}

} // namespace

TEST(CheckerTest, EmptyLogIsClean) {
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  C->finish();
  EXPECT_FALSE(C->hasViolation());
  EXPECT_EQ(C->stats().MethodsChecked, 0u);
}

TEST(CheckerTest, SequentialMutatorsPass) {
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  runScript(*C, concat({F.setOk(0, 1), F.setOk(0, 2), F.setOk(0, 3)}));
  EXPECT_FALSE(C->hasViolation()) << C->violations()[0].str();
  EXPECT_EQ(C->stats().MethodsChecked, 3u);
  EXPECT_EQ(C->stats().CommitsProcessed, 3u);
}

TEST(CheckerTest, WitnessOrderIsCommitOrderNotCallOrder) {
  // Fig. 3: t0 calls first but commits second; the specification must see
  // t1's Set(20) before t0's Set(10).
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  std::vector<Action> S = {
      Action::call(0, F.Set, {Value(10)}),
      Action::call(1, F.Set, {Value(20)}),
      Action::blockBegin(1),
      Action::write(1, F.Reg, Value(20)),
      Action::commit(1),
      Action::blockEnd(1),
      Action::ret(1, F.Set, Value(true)),
      Action::blockBegin(0),
      Action::write(0, F.Reg, Value(10)),
      Action::commit(0),
      Action::blockEnd(0),
      Action::ret(0, F.Set, Value(true)),
  };
  runScript(*C, S);
  EXPECT_FALSE(C->hasViolation());
  EXPECT_EQ(F.Spec.State, Value(10)) << "t0 committed last";
}

TEST(CheckerTest, ReturnValueLookaheadStallsUntilReturn) {
  // The commit is fed long before the return; the checker must not process
  // it (or later events) until the return arrives.
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  C->feed(Action::call(0, F.Set, {Value(5)}));
  C->feed(Action::blockBegin(0));
  C->feed(Action::write(0, F.Reg, Value(5)));
  C->feed(Action::commit(0));
  C->feed(Action::blockEnd(0));
  EXPECT_EQ(C->stats().CommitsProcessed, 0u) << "stalled on lookahead";
  C->feed(Action::ret(0, F.Set, Value(true)));
  EXPECT_EQ(C->stats().CommitsProcessed, 1u);
  C->finish();
  EXPECT_FALSE(C->hasViolation());
}

TEST(CheckerTest, MutatorMismatchIsReported) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  // Set must return true; a false return has no spec transition.
  std::vector<Action> S = {Action::call(0, F.Set, {Value(1)}),
                           Action::commit(0),
                           Action::ret(0, F.Set, Value(false))};
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_MutatorMismatch));
}

TEST(CheckerTest, ObserverSeesStateAtCall) {
  // Get returning the pre-update value is fine when its call precedes the
  // mutator's commit (window includes s0).
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  std::vector<Action> S = concat({F.setOk(0, 1)});
  S.push_back(Action::call(2, F.Get, {}));
  auto Mut = F.setOk(1, 99);
  S.insert(S.end(), Mut.begin(), Mut.end());
  S.push_back(Action::ret(2, F.Get, Value(1))); // old value
  runScript(*C, S);
  EXPECT_FALSE(C->hasViolation()) << C->violations()[0].str();
}

TEST(CheckerTest, ObserverSeesStateAfterAnyWindowCommit) {
  // Get returning the post-update value is fine when the mutator commits
  // inside the observer's window (Fig. 7).
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  std::vector<Action> S = concat({F.setOk(0, 1)});
  S.push_back(Action::call(2, F.Get, {}));
  auto Mut = F.setOk(1, 99);
  S.insert(S.end(), Mut.begin(), Mut.end());
  S.push_back(Action::ret(2, F.Get, Value(99))); // new value
  runScript(*C, S);
  EXPECT_FALSE(C->hasViolation()) << C->violations()[0].str();
}

TEST(CheckerTest, ObserverMismatchOutsideWindow) {
  // Get runs entirely after Set(99): returning the stale value 1 matches
  // no window state.
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  std::vector<Action> S =
      concat({F.setOk(0, 1), F.setOk(1, 99),
              {Action::call(2, F.Get, {}),
               Action::ret(2, F.Get, Value(1))}});
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_ObserverMismatch));
}

TEST(CheckerTest, ObserverWindowClosesBeforeLaterCommits) {
  // A commit *after* the observer's return must not validate it.
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  std::vector<Action> S =
      concat({F.setOk(0, 1),
              {Action::call(2, F.Get, {}),
               Action::ret(2, F.Get, Value(99))}, // nothing set 99 yet
              F.setOk(1, 99)});
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_ObserverMismatch));
}

TEST(CheckerTest, ViewMismatchDetectedAtCommit) {
  // The implementation writes 7 but claims Set(8): viewI != viewS.
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  std::vector<Action> S = {
      Action::call(0, F.Set, {Value(8)}),
      Action::blockBegin(0),
      Action::write(0, F.Reg, Value(7)), // the "bug"
      Action::commit(0),
      Action::blockEnd(0),
      Action::ret(0, F.Set, Value(true)),
  };
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_ViewMismatch));
  // I/O refinement on the same trace sees nothing wrong.
  Fixture F2;
  auto C2 = F2.make(CheckMode::CM_IORefinement);
  runScript(*C2, S);
  EXPECT_FALSE(C2->hasViolation());
}

TEST(CheckerTest, CommitBlockWritesApplyAtomicallyAtCommit) {
  // t1's commit lands between t0's block-begin and block-end; t0's write
  // must NOT be visible to the view comparison at t1's commit.
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  std::vector<Action> S = {
      Action::call(0, F.Set, {Value(10)}),
      Action::blockBegin(0),
      Action::write(0, F.Reg, Value(10)),
      // t1 commits mid-block of t0:
      Action::call(1, F.Set, {Value(20)}),
      Action::blockBegin(1),
      Action::write(1, F.Reg, Value(20)),
      Action::commit(1),
      Action::blockEnd(1),
      Action::ret(1, F.Set, Value(true)),
      // t0 finishes afterwards:
      Action::commit(0),
      Action::blockEnd(0),
      Action::ret(0, F.Set, Value(true)),
  };
  runScript(*C, S);
  // Witness: Set(20) then Set(10); the shadow register ends at 10 on both
  // sides and no transient mixing occurs.
  EXPECT_FALSE(C->hasViolation()) << C->violations()[0].str();
  EXPECT_EQ(F.Spec.State, Value(10));
  EXPECT_EQ(F.Replay.State, Value(10));
}

TEST(CheckerTest, BlockWithoutCommitAppliesAtBlockEnd) {
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  // A maintenance method that rewrites the register to its current value
  // inside a block with the commit outside the block.
  std::vector<Action> S = concat({F.setOk(0, 4)});
  S.push_back(Action::call(1, F.Set, {Value(4)}));
  S.push_back(Action::blockBegin(1));
  S.push_back(Action::write(1, F.Reg, Value(4)));
  S.push_back(Action::blockEnd(1));
  S.push_back(Action::commit(1));
  S.push_back(Action::ret(1, F.Set, Value(true)));
  runScript(*C, S);
  EXPECT_FALSE(C->hasViolation()) << C->violations()[0].str();
}

TEST(CheckerTest, InvariantFailureIsReported) {
  Fixture F;
  F.Replay.FailInvariant = true;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  runScript(*C, F.setOk(0, 1));
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_InvariantFailed));
}

TEST(CheckerTest, MissingCommitIsInstrumentationError) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  std::vector<Action> S = {Action::call(0, F.Set, {Value(1)}),
                           Action::ret(0, F.Set, Value(true))};
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_Instrumentation));
}

TEST(CheckerTest, DoubleCommitIsInstrumentationError) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  std::vector<Action> S = {Action::call(0, F.Set, {Value(1)}),
                           Action::commit(0), Action::commit(0),
                           Action::ret(0, F.Set, Value(true))};
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_Instrumentation));
}

TEST(CheckerTest, ObserverCommitIsInstrumentationError) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  std::vector<Action> S = {Action::call(0, F.Get, {}), Action::commit(0),
                           Action::ret(0, F.Get, Value(0))};
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_Instrumentation));
}

TEST(CheckerTest, NestedCallIsInstrumentationError) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  std::vector<Action> S = {Action::call(0, F.Set, {Value(1)}),
                           Action::call(0, F.Set, {Value(2)})};
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_Instrumentation));
}

TEST(CheckerTest, IncompleteTailAllowedByDefault) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  runScript(*C, {Action::call(0, F.Set, {Value(1)}), Action::commit(0)});
  EXPECT_FALSE(C->hasViolation());
}

TEST(CheckerTest, IncompleteTailFlaggedInStrictMode) {
  Fixture F;
  CheckerConfig CC;
  CC.AllowIncompleteTail = false;
  auto C = F.make(CheckMode::CM_IORefinement, CC);
  runScript(*C, {Action::call(0, F.Set, {Value(1)}), Action::commit(0)});
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_Instrumentation));
}

TEST(CheckerTest, StopAtFirstViolationStopsCounting) {
  Fixture F;
  CheckerConfig CC;
  CC.StopAtFirstViolation = true;
  auto C = F.make(CheckMode::CM_IORefinement, CC);
  std::vector<Action> S =
      concat({{Action::call(0, F.Set, {Value(1)}), Action::commit(0),
               Action::ret(0, F.Set, Value(false))}, // violation
              F.setOk(0, 2),
              F.setOk(0, 3)});
  runScript(*C, S);
  EXPECT_EQ(C->violations().size(), 1u);
}

TEST(CheckerTest, MaxViolationsCapsReports) {
  Fixture F;
  CheckerConfig CC;
  CC.MaxViolations = 2;
  auto C = F.make(CheckMode::CM_IORefinement, CC);
  std::vector<Action> S;
  for (int I = 0; I < 5; ++I) {
    S.push_back(Action::call(0, F.Set, {Value(I)}));
    S.push_back(Action::commit(0));
    S.push_back(Action::ret(0, F.Set, Value(false))); // each violates
  }
  runScript(*C, S);
  EXPECT_EQ(C->violations().size(), 2u);
}

TEST(CheckerTest, AuditPassesOnConsistentReplayer) {
  Fixture F;
  CheckerConfig CC;
  CC.AuditPeriod = 1;
  auto C = F.make(CheckMode::CM_ViewRefinement, CC);
  runScript(*C, concat({F.setOk(0, 1), F.setOk(0, 2)}));
  EXPECT_FALSE(C->hasViolation()) << C->violations()[0].str();
  EXPECT_EQ(C->stats().Audits, 2u);
}

TEST(CheckerTest, DriftingReplayerIsInstrumentationFault) {
  // The implementation matches the spec; only the replayer's digest is
  // wrong. That is an instrumentation fault, found either by the commit's
  // digest comparison (settled on rebuilt views) or by the audit, and
  // reported once: the digests are re-seeded from the rebuilt views.
  for (unsigned Audit : {0u, 1u}) {
    SCOPED_TRACE("AuditPeriod " + std::to_string(Audit));
    Fixture F;
    DriftingReplayer Drift;
    CheckerConfig CC;
    CC.Mode = CheckMode::CM_ViewRefinement;
    CC.AuditPeriod = Audit;
    RefinementChecker C(F.Spec, &Drift, CC);
    runScript(C, concat({F.setOk(0, 1), F.setOk(0, 2), F.setOk(0, 3)}));
    ASSERT_EQ(C.violations().size(), 1u);
    const Violation &V = C.violations()[0];
    EXPECT_EQ(V.Kind, ViolationKind::VK_Instrumentation) << V.str();
    EXPECT_FALSE(hasViolation(C, ViolationKind::VK_ViewMismatch));
    EXPECT_NE(V.Message.find("viewI"), std::string::npos) << V.Message;
    EXPECT_EQ(V.Message.find("viewS"), std::string::npos) << V.Message;
    EXPECT_EQ(V.Message.rfind("audit: ", 0) == 0, Audit == 1) << V.Message;
    EXPECT_EQ(C.stats().Audits, Audit ? 3u : 0u);
  }
}

TEST(CheckerTest, FullRecomputeModeAgreesWithIncremental) {
  Fixture F;
  CheckerConfig CC;
  CC.FullViewRecompute = true;
  auto C = F.make(CheckMode::CM_ViewRefinement, CC);
  runScript(*C, concat({F.setOk(0, 1), F.setOk(1, 2), F.setOk(0, 3)}));
  EXPECT_FALSE(C->hasViolation());
}

TEST(CheckerTest, QuiescentOnlySkipsContestedCommits) {
  // The "bug" (write 7, claim Set(8)) commits while another execution is
  // open, and a later correct Set overwrites the corruption: quiescent
  // checking misses it, every-commit checking reports it (the Sec. 8
  // argument against quiescent-point comparison).
  auto MakeScript = [](Fixture &F) {
    std::vector<Action> S = {
        Action::call(1, F.Set, {Value(99)}), // keeps the point contested
        Action::call(0, F.Set, {Value(8)}),
        Action::blockBegin(0),
        Action::write(0, F.Reg, Value(7)), // corruption
        Action::commit(0),
        Action::blockEnd(0),
        Action::ret(0, F.Set, Value(true)),
        Action::blockBegin(1),
        Action::write(1, F.Reg, Value(99)), // overwrites the evidence
        Action::commit(1),
        Action::blockEnd(1),
        Action::ret(1, F.Set, Value(true)),
    };
    return S;
  };

  Fixture FQ;
  CheckerConfig Quiescent;
  Quiescent.QuiescentOnly = true;
  auto CQ = FQ.make(CheckMode::CM_ViewRefinement, Quiescent);
  runScript(*CQ, MakeScript(FQ));
  EXPECT_FALSE(hasViolation(*CQ, ViolationKind::VK_ViewMismatch))
      << "quiescent-only checking must miss the overwritten corruption";

  Fixture FE;
  auto CE = FE.make(CheckMode::CM_ViewRefinement);
  runScript(*CE, MakeScript(FE));
  EXPECT_TRUE(hasViolation(*CE, ViolationKind::VK_ViewMismatch))
      << "every-commit checking must catch it";
}

TEST(CheckerTest, QuiescentOnlyStillChecksQuiescentCommits) {
  Fixture F;
  CheckerConfig CC;
  CC.QuiescentOnly = true;
  auto C = F.make(CheckMode::CM_ViewRefinement, CC);
  // Sequential corruption: the commit is quiescent, so it is checked.
  std::vector<Action> S = {
      Action::call(0, F.Set, {Value(8)}),
      Action::blockBegin(0),
      Action::write(0, F.Reg, Value(7)),
      Action::commit(0),
      Action::blockEnd(0),
      Action::ret(0, F.Set, Value(true)),
  };
  runScript(*C, S);
  EXPECT_TRUE(hasViolation(*C, ViolationKind::VK_ViewMismatch));
}

TEST(CheckerTest, QueueDepthTracksLookahead) {
  Fixture F;
  auto C = F.make(CheckMode::CM_ViewRefinement);
  // Ten commits all stalled on their returns: the queue must have grown.
  std::vector<Action> S;
  for (ThreadId T = 0; T < 10; ++T) {
    S.push_back(Action::call(T, F.Set, {Value(T)}));
    S.push_back(Action::blockBegin(T));
    S.push_back(Action::write(T, F.Reg, Value(static_cast<int64_t>(T))));
    S.push_back(Action::commit(T));
    S.push_back(Action::blockEnd(T));
  }
  for (ThreadId T = 0; T < 10; ++T)
    S.push_back(Action::ret(T, F.Set, Value(true)));
  runScript(*C, S);
  EXPECT_FALSE(C->hasViolation()) << C->violations()[0].str();
  EXPECT_GE(C->stats().MaxQueueDepth, 10u);
}

TEST(CheckerTest, ContextRecordsAttachRecentActions) {
  Fixture F;
  CheckerConfig CC;
  CC.ContextRecords = 6;
  auto C = F.make(CheckMode::CM_IORefinement, CC);
  std::vector<Action> S =
      concat({F.setOk(0, 1),
              {Action::call(0, F.Set, {Value(2)}), Action::commit(0),
               Action::ret(0, F.Set, Value(false))}});
  runScript(*C, S);
  ASSERT_TRUE(C->hasViolation());
  const Violation &V = C->violations().front();
  EXPECT_FALSE(V.Context.empty());
  EXPECT_NE(V.Context.find("commit"), std::string::npos) << V.Context;
  // The ring holds at most the configured number of lines.
  size_t Lines = 0;
  for (char Ch : V.Context)
    Lines += Ch == '\n';
  EXPECT_LE(Lines, 6u);
}

TEST(CheckerTest, ContextDisabledByDefault) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  runScript(*C, {Action::call(0, F.Set, {Value(1)}), Action::commit(0),
                 Action::ret(0, F.Set, Value(false))});
  ASSERT_TRUE(C->hasViolation());
  EXPECT_TRUE(C->violations().front().Context.empty());
}

TEST(CheckerTest, ViolationRecordsMethodsChecked) {
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  std::vector<Action> S =
      concat({F.setOk(0, 1), F.setOk(0, 2),
              {Action::call(0, F.Set, {Value(3)}), Action::commit(0),
               Action::ret(0, F.Set, Value(false))}});
  runScript(*C, S);
  ASSERT_TRUE(C->hasViolation());
  EXPECT_EQ(C->violations()[0].MethodsChecked, 2u)
      << "two methods checked before the bad one";
}

TEST(CheckerTest, RecoveryStateSatisfiesOpenObserver) {
  // A Sec. 4.1 recovery changes the spec state from inside the retry pass
  // of a commit whose own transition FAILED; the open observer must be
  // evaluated at the recovered state too.
  //
  // Timeline (register starts at 0):
  //   1. t3: Cas(1,2) commits -> fails at 0, parked for diagnosis.
  //   2. t0: Cas(5,1) commits -> fails at 0, parked.
  //   3. t1: Get() -> 2 opens (state 0: unsatisfied).
  //   4. t2: Set(5) commits: state 5; retries run in park order:
  //      Cas(1,2) still fails, Cas(5,1) recovers -> state 1. The
  //      observer re-evaluates at state 1: still unsatisfied.
  //   5. t4: Cas(9,9) commits -> fails at 1; the retry pass now recovers
  //      Cas(1,2) -> state 2, where Get() -> 2 is finally allowed.
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  runScript(*C, {
                    Action::call(3, F.Cas, {Value(1), Value(2)}),
                    Action::commit(3),
                    Action::call(0, F.Cas, {Value(5), Value(1)}),
                    Action::commit(0),
                    Action::call(1, F.Get, {}),
                    Action::call(2, F.Set, {Value(5)}),
                    Action::commit(2),
                    Action::ret(2, F.Set, Value(true)),
                    Action::call(4, F.Cas, {Value(9), Value(9)}),
                    Action::commit(4),
                    Action::ret(4, F.Cas, Value(true)),
                    Action::ret(3, F.Cas, Value(true)),
                    Action::ret(0, F.Cas, Value(true)),
                    Action::ret(1, F.Get, Value(2)),
                });
  // The three failed Cas commits are mutator mismatches; the observer
  // must NOT be one of the violations: the recovered state 2 satisfied it.
  for (const Violation &V : C->violations())
    EXPECT_NE(V.Kind, ViolationKind::VK_ObserverMismatch) << V.str();
  EXPECT_EQ(C->violations().size(), 3u);
}

TEST(CheckerTest, ObserversClosingOutOfOrder) {
  // Three observers open in order A, B, C and close B, C, A — the middle
  // close exercises the swap (C moves into B's slot), the next close
  // removes C from its new position. Each verdict must follow the
  // observer's own window, not its slot.
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  runScript(*C, concat({
                    {Action::call(1, F.Get, {}),  // A: Get() -> 1 (never true)
                     Action::call(2, F.Get, {}),  // B: Get() -> 2
                     Action::call(3, F.Get, {})}, // C: Get() -> 3
                    F.setOk(0, 2),
                    {Action::ret(2, F.Get, Value(2))}, // B closes satisfied
                    F.setOk(0, 3),
                    {Action::ret(3, F.Get, Value(3)),  // C closes satisfied
                     Action::ret(1, F.Get, Value(1))}, // A: 1 never held
                }));
  ASSERT_EQ(C->violations().size(), 1u);
  EXPECT_EQ(C->violations()[0].Kind, ViolationKind::VK_ObserverMismatch);
  EXPECT_EQ(C->violations()[0].Tid, 1u) << "the wrong observer was blamed";
}

TEST(CheckerTest, FailedMutatorsRetiringOutOfOrder) {
  // Two parked mutators; the FIRST recovers (swap-and-pop moves the last
  // entry into slot 0) and the second must still be retried and receive
  // its "likely genuine" annotation at its return.
  Fixture F;
  auto C = F.make(CheckMode::CM_IORefinement);
  runScript(*C, concat({
                    {Action::call(0, F.Cas, {Value(5), Value(6)}), // at 5
                     Action::commit(0),
                     Action::call(1, F.Cas, {Value(77), Value(78)}), // never
                     Action::commit(1)},
                    F.setOk(2, 5),
                    {Action::ret(0, F.Cas, Value(true)),
                     Action::ret(1, F.Cas, Value(true))},
                }));
  ASSERT_EQ(C->violations().size(), 2u);
  bool SawTooEarly = false, SawGenuine = false;
  for (const Violation &V : C->violations()) {
    EXPECT_EQ(V.Kind, ViolationKind::VK_MutatorMismatch);
    if (V.Message.find("likely too early") != std::string::npos)
      SawTooEarly = true;
    if (V.Message.find("likely a genuine") != std::string::npos)
      SawGenuine = true;
  }
  EXPECT_TRUE(SawTooEarly) << "recovered mutator lost its annotation";
  EXPECT_TRUE(SawGenuine) << "unrecovered mutator lost its annotation";
}
