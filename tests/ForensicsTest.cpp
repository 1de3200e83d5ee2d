//===- ForensicsTest.cpp - Tests for violation flight-recorder bundles ----===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the flight recorder at both layers: the checker's in-memory
/// bundle (captured the moment a violation is raised: last-N retired
/// actions, the open-execution table, the spec-state digest) and the
/// verifier's on-disk `*.forensic.json` files (written for the first
/// violation per object, surfaced through the report).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "multiset/ArrayMultiset.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Checker.h"
#include "vyrd/Serialize.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <unistd.h>

using namespace vyrd;
using namespace vyrd::test;

namespace {

/// Tiny register spec: Set(x) -> true sets the state; Get() -> x allowed
/// iff x is the current state (IO refinement; no replayer needed).
class RegSpec : public Spec {
public:
  RegSpec() : SetM(name("fx.Set")), GetM(name("fx.Get")), State(Value(0)) {}

  bool isObserver(Name Method) const override { return Method == GetM; }

  bool applyMutator(Name Method, const ValueList &Args, const Value &Ret,
                    View &) override {
    if (Method != SetM || Args.size() != 1 || !Ret.isBool() ||
        !Ret.asBool())
      return false;
    State = Args[0];
    return true;
  }

  bool returnAllowed(Name Method, const ValueList &,
                     const Value &Ret) const override {
    return Method == GetM && Ret == State;
  }

  void buildView(View &Out) const override { Out.clear(); }

  bool saveState(ByteWriter &W) const override {
    writeValue(W, State);
    return true;
  }
  bool loadState(ByteReader &R) override {
    State = readValue(R);
    return R.ok();
  }

  Name SetM, GetM;
  Value State;
};

/// One correct Set(x) execution by \p Tid (call, commit, ret).
std::vector<Action> setOk(const RegSpec &S, ThreadId Tid, int64_t X) {
  return {Action::call(Tid, S.SetM, {Value(X)}), Action::commit(Tid),
          Action::ret(Tid, S.SetM, Value(X != -1))};
}

std::string tempPrefix(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-forensic-" + Tag + "-" +
         std::to_string(::getpid());
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The `"recent_actions":[...]` slice of a bundle (for entry counting).
std::string recentActionsSlice(const std::string &Bundle) {
  size_t Begin = Bundle.find("\"recent_actions\":[");
  size_t End = Bundle.find("],\"open_execs\"", Begin);
  if (Begin == std::string::npos || End == std::string::npos)
    return "";
  return Bundle.substr(Begin, End - Begin);
}

} // namespace

//===----------------------------------------------------------------------===//
// Checker-level capture
//===----------------------------------------------------------------------===//

TEST(ForensicsTest, CapturesBundleAtViolation) {
  RegSpec S;
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_IORefinement;
  CC.FlightRecorderDepth = 8;
  RefinementChecker C(S, nullptr, CC);

  std::vector<Action> Script;
  for (int64_t X = 1; X <= 4; ++X)
    for (Action &A : setOk(S, /*Tid=*/0, X))
      Script.push_back(A);
  // An execution left open at the violation: the bundle must list it.
  // (A mutator call: an *observer* left open would defer commit-window
  // checking and swallow the violation until it resolves.)
  Script.push_back(Action::call(7, S.SetM, {Value(int64_t(9))}));
  // The violation: Set that "returns" false (spec cannot execute it).
  for (Action &A : setOk(S, /*Tid=*/1, -1))
    Script.push_back(A);
  runScript(C, Script);

  ASSERT_TRUE(C.hasViolation());
  ASSERT_EQ(C.forensics().size(), C.violations().size());
  const std::string &B = C.forensics().front();
  ASSERT_FALSE(B.empty());
  EXPECT_TRUE(jsonValid(B)) << B;
  EXPECT_NE(B.find("\"schema\":\"vyrd-forensic-v1\""), std::string::npos);
  EXPECT_NE(B.find("\"mutator-mismatch\""), std::string::npos) << B;
  EXPECT_NE(B.find("\"recent_actions\""), std::string::npos);
  EXPECT_NE(B.find("\"open_execs\""), std::string::npos);
  EXPECT_NE(B.find("\"tid\":7"), std::string::npos)
      << "the open tid-7 Set execution must appear: " << B;
  EXPECT_NE(B.find("\"spec_state\""), std::string::npos);
  EXPECT_NE(B.find("\"spec_blob_fnv1a\""), std::string::npos);
  EXPECT_NE(B.find("\"stats\""), std::string::npos);
}

TEST(ForensicsTest, DepthZeroCapturesNothing) {
  RegSpec S;
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_IORefinement;
  RefinementChecker C(S, nullptr, CC);
  runScript(C, setOk(S, 0, -1));
  ASSERT_TRUE(C.hasViolation());
  ASSERT_EQ(C.forensics().size(), 1u);
  EXPECT_TRUE(C.forensics().front().empty())
      << "depth 0 must not pay for capture";
}

TEST(ForensicsTest, RingBoundsRecentActions) {
  RegSpec S;
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_IORefinement;
  CC.FlightRecorderDepth = 6;
  RefinementChecker C(S, nullptr, CC);

  // 20 clean executions (60 actions), then the violation: the ring must
  // retain exactly the last 6 actions, and they must be the latest ones.
  std::vector<Action> Script;
  for (int64_t X = 1; X <= 20; ++X)
    for (Action &A : setOk(S, 0, X))
      Script.push_back(A);
  for (Action &A : setOk(S, 1, -1))
    Script.push_back(A);
  runScript(C, Script);

  ASSERT_TRUE(C.hasViolation());
  const std::string &B = C.forensics().front();
  std::string Recent = recentActionsSlice(B);
  ASSERT_FALSE(Recent.empty()) << B;
  EXPECT_EQ(countOccurrences(Recent, "{\"seq\":"), 6u) << Recent;
  EXPECT_NE(Recent.find("\"seq\":62"), std::string::npos)
      << "the violating ret (last fed action) must be present: " << Recent;
  EXPECT_EQ(Recent.find("\"seq\":0,"), std::string::npos)
      << "the oldest actions must have been evicted: " << Recent;
}

TEST(ForensicsTest, ContextAndRecorderShareTheRing) {
  // ContextRecords > FlightRecorderDepth: the bundle still only shows
  // the recorder's depth, while the violation context gets its own.
  RegSpec S;
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_IORefinement;
  CC.ContextRecords = 10;
  CC.FlightRecorderDepth = 3;
  RefinementChecker C(S, nullptr, CC);
  std::vector<Action> Script;
  for (int64_t X = 1; X <= 5; ++X)
    for (Action &A : setOk(S, 0, X))
      Script.push_back(A);
  for (Action &A : setOk(S, 1, -1))
    Script.push_back(A);
  runScript(C, Script);

  ASSERT_TRUE(C.hasViolation());
  const Violation &V = C.violations().front();
  EXPECT_EQ(countOccurrences(V.Context, "\n"), 10u) << V.Context;
  std::string Recent = recentActionsSlice(C.forensics().front());
  EXPECT_EQ(countOccurrences(Recent, "{\"seq\":"), 3u) << Recent;
}

//===----------------------------------------------------------------------===//
// Verifier-level files
//===----------------------------------------------------------------------===//

TEST(ForensicsTest, VerifierWritesBundleFileOnViolation) {
  std::string Prefix = tempPrefix("e2e");
  VerifierConfig VC;
  VC.Online = true;
  VC.ForensicPrefix = Prefix; // auto-arms the flight recorder
  auto V = std::make_unique<Verifier>(
      std::make_unique<multiset::MultisetSpec>(),
      KeyValueReplayer::guardedBag("A"), VC);
  V->start();

  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 16;
  multiset::ArrayMultiset M(MO, V->hooks());
  for (int I = 0; I < 30; ++I) {
    M.insert(I % 5);
    M.lookUp(I % 5);
  }
  // Seed the violation: a commit with no enclosing call, from a thread
  // the workload never used.
  V->log().append(Action::commit(99));
  for (int I = 0; I < 200 && !V->violationSeen(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  VerifierReport R = V->finish();
  ASSERT_FALSE(R.ok());
  ASSERT_FALSE(R.ForensicFiles.empty()) << R.str();
  const std::string &Path = R.ForensicFiles.front();
  EXPECT_EQ(Path.find(Prefix), 0u) << Path;
  EXPECT_NE(Path.find(".forensic.json"), std::string::npos) << Path;
  EXPECT_NE(R.str().find("forensics: " + Path), std::string::npos)
      << R.str();
  EXPECT_NE(R.json().find("\"forensic_files\""), std::string::npos);
  EXPECT_TRUE(jsonValid(R.json())) << R.json();

  std::string Doc = slurp(Path);
  ASSERT_FALSE(Doc.empty());
  EXPECT_TRUE(jsonValid(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"schema\":\"vyrd-forensic-v1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"object\""), std::string::npos);
  EXPECT_NE(Doc.find("\"recent_actions\""), std::string::npos);
  EXPECT_NE(Doc.find("\"open_execs\""), std::string::npos);
  EXPECT_NE(Doc.find("\"spec_state\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ForensicsTest, NoViolationWritesNoFiles) {
  std::string Prefix = tempPrefix("clean");
  VerifierConfig VC;
  VC.Online = true;
  VC.ForensicPrefix = Prefix;
  auto V = std::make_unique<Verifier>(
      std::make_unique<multiset::MultisetSpec>(),
      KeyValueReplayer::guardedBag("A"), VC);
  V->start();
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 16;
  multiset::ArrayMultiset M(MO, V->hooks());
  for (int I = 0; I < 30; ++I)
    M.insert(I % 5);
  VerifierReport R = V->finish();
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_TRUE(R.ForensicFiles.empty());
}

TEST(ForensicsTest, ExplicitDepthZeroDisablesFilesEvenWithPrefix) {
  // A user who sets the prefix but forces depth 0 gets violations
  // without bundles (and without the capture cost).
  RegSpec S;
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_IORefinement;
  CC.FlightRecorderDepth = 0;
  RefinementChecker C(S, nullptr, CC);
  runScript(C, setOk(S, 0, -1));
  ASSERT_TRUE(C.hasViolation());
  EXPECT_TRUE(C.forensics().front().empty());
}
