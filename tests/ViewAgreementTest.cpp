//===- ViewAgreementTest.cpp - One verdict across checking modes ----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checker settles views two ways: by the incremental digests (the
/// default; rebuilding both views only when the digests differ) and by
/// rebuilding both views at every commit (CheckerConfig::FullViewRecompute,
/// the Sec. 6.4 ablation). And it checks a run two ways: online, on the
/// verifier's checker pool while the program runs, and offline over the
/// recorded log (epochCheck). All must reach the same verdict on the same
/// log. Each program, and the composite, runs with its injected bug under
/// chaos, checked online on a pool of four while it is recorded at view
/// level; the recording is then checked offline twice.
///
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Epoch.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <optional>
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

/// Records \p P (the composite when empty) into \p Path with its bug
/// injected under chaos, checking it online on a pool of four.
VerifierReport recordOnline(std::optional<Program> P, uint64_t Seed,
                            const std::string &Path) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_OnlineView;
  SO.Buggy = true;
  SO.LogPath = Path;
  SO.CheckerThreads = 4;
  if (P)
    SO.Prog = *P;
  Scenario S = P ? makeScenario(SO) : makeCompositeScenario(SO);
  Chaos::enable(4, static_cast<unsigned>(Seed));
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 150;
  WO.KeyPoolSize = 16;
  WO.Seed = static_cast<unsigned>(Seed);
  WO.BackgroundOp = S.BackgroundOp;
  runWorkload(WO, S.Op);
  Chaos::disable();
  return S.Finish();
}

VerifierReport checkOffline(const std::string &Path, size_t NumObjects,
                            const PipelineFactory &Factory,
                            bool FullViewRecompute) {
  EpochCheckOptions Opts;
  Opts.UseSnapshots = false;
  Opts.Checker.FullViewRecompute = FullViewRecompute;
  EpochReport R = epochCheck(Path, NumObjects, Factory, Opts);
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

/// The online verdict and both offline verdicts on \p P (the composite
/// when empty), over seeds 3, 5 and 7.
void expectAgreement(std::optional<Program> P) {
  const char *ShipKey = P ? programShipKey(*P) : "composite";
  size_t NumObjects = 0;
  PipelineFactory Factory;
  ASSERT_TRUE(resolveProgramPipeline(ShipKey, /*ViewLevel=*/true,
                                     NumObjects, Factory));
  for (uint64_t Seed : {3, 5, 7}) {
    SCOPED_TRACE(std::string(ShipKey) + " seed " + std::to_string(Seed));
    std::string Path = std::string(::testing::TempDir()) + "vyrd-agree-" +
                       ShipKey + "-" + std::to_string(Seed) + "-" +
                       std::to_string(::getpid()) + ".bin";
    VerifierReport Online = recordOnline(P, Seed, Path);
    VerifierReport Inc =
        checkOffline(Path, NumObjects, Factory, /*FullViewRecompute=*/false);
    VerifierReport Full =
        checkOffline(Path, NumObjects, Factory, /*FullViewRecompute=*/true);
    std::remove(Path.c_str());

    EXPECT_GT(Inc.LogRecords, 0u);
    EXPECT_EQ(keys(Online), keys(Inc)) << Online.str() << "\n" << Inc.str();
    EXPECT_EQ(keys(Inc), keys(Full)) << Inc.str() << "\n" << Full.str();
    EXPECT_EQ(mismatchMessages(Inc), mismatchMessages(Full));
    // The spec and replayer keep their digests in step with buildView.
    for (const Violation &V : Inc.Violations)
      EXPECT_EQ(V.Message.find("rebuilt"), std::string::npos) << V.str();
  }
}

class ViewAgreement : public ::testing::TestWithParam<Program> {};

} // namespace

TEST_P(ViewAgreement, IncrementalAndFullRecomputeAgree) {
  expectAgreement(GetParam());
}

TEST(ViewAgreementComposite, OnlineAndOfflineVerdictsAgree) {
  expectAgreement(std::nullopt);
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
