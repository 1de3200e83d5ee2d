//===- DiagnosisTest.cpp - Commit-point diagnosis (Sec. 4.1) ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "The runtime refinement check could fail either because the
/// implementation truly does not refine the specification or because the
/// witness interleaving obtained using the commit actions is wrong.
/// Comparing the witness interleaving with the implementation trace
/// reveals which one is the case." (Sec. 4.1.) The checker automates that
/// comparison: a failed mutator signature is retried at each later window
/// state, and the violation is annotated as "commit point likely too
/// early" or "likely genuine".
///
//===----------------------------------------------------------------------===//

#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Checker.h"

#include <gtest/gtest.h>

using namespace vyrd;
using namespace vyrd::multiset;

namespace {

/// Thread 0 runs Delete(5) whose commit is annotated *before* thread 1's
/// Insert(5) commits, but whose return comes after — the classic
/// too-early commit annotation: at the annotated point the spec has no
/// 5 to delete, one window state later it does.
std::vector<Action> tooEarlyCommitScript() {
  Vocab V = Vocab::get();
  std::vector<Action> S;
  auto Push = [&S](Action A) {
    A.Seq = S.size();
    S.push_back(std::move(A));
  };
  Push(Action::call(0, V.Delete, {Value(5)}));
  Push(Action::commit(0)); // (mis)annotated commit point
  Push(Action::call(1, V.Insert, {Value(5)}));
  Push(Action::write(1, Vocab::eltName(0), Value(5)));
  Push(Action::blockBegin(1));
  Push(Action::write(1, Vocab::validName(0), Value(true)));
  Push(Action::commit(1));
  Push(Action::blockEnd(1));
  Push(Action::ret(1, V.Insert, Value(true)));
  // Thread 0's delete actually takes effect only now (its writes land
  // here, long after its annotated commit), then returns.
  Push(Action::write(0, Vocab::validName(0), Value(false)));
  Push(Action::write(0, Vocab::eltName(0), Value()));
  Push(Action::call(2, V.Delete, {Value(99)})); // unrelated filler
  Push(Action::commit(2));
  Push(Action::ret(2, V.Delete, Value(false)));
  Push(Action::ret(0, V.Delete, Value(true)));
  return S;
}

/// A genuinely wrong execution: Delete(7) claims success but 7 is never
/// inserted anywhere in the window.
std::vector<Action> genuineViolationScript() {
  Vocab V = Vocab::get();
  std::vector<Action> S;
  auto Push = [&S](Action A) {
    A.Seq = S.size();
    S.push_back(std::move(A));
  };
  Push(Action::call(0, V.Delete, {Value(7)}));
  Push(Action::commit(0));
  Push(Action::call(1, V.Insert, {Value(8)})); // different key
  Push(Action::write(1, Vocab::eltName(0), Value(8)));
  Push(Action::blockBegin(1));
  Push(Action::write(1, Vocab::validName(0), Value(true)));
  Push(Action::commit(1));
  Push(Action::blockEnd(1));
  Push(Action::ret(1, V.Insert, Value(true)));
  Push(Action::ret(0, V.Delete, Value(true)));
  return S;
}

} // namespace

TEST(DiagnosisTest, TooEarlyCommitIsAnnotated) {
  MultisetSpec Spec;
  auto Replay = KeyValueReplayer::guardedBag("A");
  RefinementChecker C(Spec, Replay.get(), CheckerConfig{});
  for (const Action &A : tooEarlyCommitScript())
    C.feed(A);
  C.finish();
  ASSERT_TRUE(C.hasViolation());
  const Violation &V = C.violations().front();
  EXPECT_EQ(V.Kind, ViolationKind::VK_MutatorMismatch);
  EXPECT_NE(V.Message.find("likely too early"), std::string::npos)
      << V.Message;
}

TEST(DiagnosisTest, TooEarlyRecoveryAppliesTheTransition) {
  // After the diagnosis applies Delete(5) late, the spec state is
  // consistent again: no cascade of view mismatches.
  MultisetSpec Spec;
  auto Replay = KeyValueReplayer::guardedBag("A");
  RefinementChecker C(Spec, Replay.get(), CheckerConfig{});
  for (const Action &A : tooEarlyCommitScript())
    C.feed(A);
  C.finish();
  EXPECT_EQ(Spec.count(5), 0u) << "the delete was applied on retry";
  size_t ViewMismatches = 0;
  for (const Violation &V : C.violations())
    ViewMismatches += V.Kind == ViolationKind::VK_ViewMismatch;
  EXPECT_EQ(ViewMismatches, 0u)
      << "late application keeps viewS in sync; only the mutator "
         "mismatch itself is reported";
}

TEST(DiagnosisTest, GenuineViolationIsAnnotated) {
  MultisetSpec Spec;
  auto Replay = KeyValueReplayer::guardedBag("A");
  RefinementChecker C(Spec, Replay.get(), CheckerConfig{});
  for (const Action &A : genuineViolationScript())
    C.feed(A);
  C.finish();
  ASSERT_TRUE(C.hasViolation());
  const Violation &V = C.violations().front();
  EXPECT_EQ(V.Kind, ViolationKind::VK_MutatorMismatch);
  EXPECT_NE(V.Message.find("likely a genuine refinement violation"),
            std::string::npos)
      << V.Message;
}
