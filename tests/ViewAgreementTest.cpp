//===- ViewAgreementTest.cpp - Incremental vs full-recompute verdicts -----===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker settles views two ways: by the incremental digests (the
/// default; rebuilding both views only when the digests differ) and by
/// rebuilding both views at every commit (CheckerConfig::FullViewRecompute,
/// the Sec. 6.4 ablation). Both must reach the same verdict on the same
/// log. Each program runs with its injected bug under chaos, is recorded
/// once at view level, and the recording is checked offline twice.
///
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Epoch.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unistd.h>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

std::vector<Program> everyProgram() {
  std::vector<Program> Ps = allPrograms();
  for (Program P : extensionPrograms())
    Ps.push_back(P);
  return Ps;
}

/// Records \p P with its bug injected, at view level, into \p Path.
void recordBuggy(Program P, uint64_t Seed, const std::string &Path) {
  ScenarioOptions SO;
  SO.Prog = P;
  SO.Mode = RunMode::RM_LogOnlyView;
  SO.Buggy = true;
  SO.LogPath = Path;
  Scenario S = makeScenario(SO);
  Chaos::enable(4, static_cast<unsigned>(Seed));
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 150;
  WO.KeyPoolSize = 16;
  WO.Seed = static_cast<unsigned>(Seed);
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  Chaos::disable();
  S.Finish();
}

VerifierReport checkOffline(Program P, const std::string &Path,
                            bool FullViewRecompute) {
  EpochCheckOptions Opts;
  Opts.UseSnapshots = false;
  Opts.Checker.FullViewRecompute = FullViewRecompute;
  EpochReport R =
      epochCheck(Path, 1, makeProgramPipeline(P, /*ViewLevel=*/true), Opts);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  return R.Report;
}

using Key = std::tuple<ViolationKind, uint64_t, ObjectId>;

std::set<Key> keys(const VerifierReport &R) {
  std::set<Key> K;
  for (const Violation &V : R.Violations)
    K.emplace(V.Kind, V.Seq, V.Obj);
  return K;
}

/// VK_ViewMismatch messages by seq: the diff text must not depend on how
/// the mismatch was found.
std::map<uint64_t, std::string> mismatchMessages(const VerifierReport &R) {
  std::map<uint64_t, std::string> M;
  for (const Violation &V : R.Violations)
    if (V.Kind == ViolationKind::VK_ViewMismatch)
      M[V.Seq] = V.Message;
  return M;
}

class ViewAgreement : public ::testing::TestWithParam<Program> {};

} // namespace

TEST_P(ViewAgreement, IncrementalAndFullRecomputeAgree) {
  Program P = GetParam();
  for (uint64_t Seed : {3, 5, 7}) {
    SCOPED_TRACE(std::string(programName(P)) + " seed " +
                 std::to_string(Seed));
    std::string Path = std::string(::testing::TempDir()) + "vyrd-agree-" +
                       std::to_string(static_cast<int>(P)) + "-" +
                       std::to_string(Seed) + "-" +
                       std::to_string(::getpid()) + ".bin";
    recordBuggy(P, Seed, Path);
    VerifierReport Inc = checkOffline(P, Path, /*FullViewRecompute=*/false);
    VerifierReport Full = checkOffline(P, Path, /*FullViewRecompute=*/true);
    std::remove(Path.c_str());

    EXPECT_GT(Inc.LogRecords, 0u);
    EXPECT_EQ(keys(Inc), keys(Full)) << Inc.str() << "\n" << Full.str();
    EXPECT_EQ(mismatchMessages(Inc), mismatchMessages(Full));
    // The spec and replayer keep their digests in step with buildView.
    for (const Violation &V : Inc.Violations)
      EXPECT_EQ(V.Message.find("rebuilt"), std::string::npos) << V.str();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ViewAgreement,
                         ::testing::ValuesIn(everyProgram()),
                         [](const ::testing::TestParamInfo<Program> &I) {
                           std::string N = programName(I.param);
                           for (char &C : N)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });
