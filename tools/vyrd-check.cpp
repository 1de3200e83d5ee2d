//===- vyrd-check.cpp - Offline refinement check of a recorded log ---------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Checks a recorded log or segment chain against one of the bundled
// program specifications (post-mortem verification, the "VYRD alone"
// mode of Table 3). Every run goes through epochCheck (vyrd/Epoch.h), the
// same CheckerService consumer the online Verifier uses, so violations
// carry the log's own sequence numbers and memory stays bounded by the
// batch window whatever the log's size.
//
//   vyrd-check <log-file> --program <name> [--mode io|view]
//              [--max-violations N] [--audit N] [--quiescent]
//              [--context N]   (attach the last N records to violations)
//              [--resume]      (cold restart from the snapshot sidecar of
//                               the oldest live segment, docs/SNAPSHOTS.md)
//              [--epochs N]    (split the chain at snapshot sidecars and
//                               check the epochs on N threads)
//
// Program names: multiset, bst, vector, stringbuffer, blinktree, cache,
// scanfs, hashtable, queue — plus "composite" (the four-object harness
// scenario). Exit code: 0 clean, 1 violations found, 2 usage/IO error.
//
//===----------------------------------------------------------------------===//

#include "ParseArgs.h"
#include "harness/Scenarios.h"
#include "vyrd/Epoch.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s <log-file> --program multiset|bst|vector|stringbuffer|"
      "blinktree|cache|scanfs|hashtable|queue|composite\n"
      "          [--mode io|view] [--max-violations N] [--audit N] "
      "[--quiescent] [--context N]\n"
      "          [--resume] [--epochs N]\n",
      Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path, ProgName, Mode = "view";
  uint64_t MaxViolations = 16, Audit = 0, Context = 0, Epochs = 0;
  bool Quiescent = false, Resume = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--program" && I + 1 < Argc) {
      ProgName = Argv[++I];
    } else if (Arg == "--mode" && I + 1 < Argc) {
      Mode = Argv[++I];
    } else if (Arg == "--max-violations" && I + 1 < Argc) {
      if (!tools::parseUnsigned(Argv[++I], MaxViolations))
        return usage(Argv[0]);
    } else if (Arg == "--audit" && I + 1 < Argc) {
      if (!tools::parseUnsigned(Argv[++I], Audit))
        return usage(Argv[0]);
    } else if (Arg == "--context" && I + 1 < Argc) {
      if (!tools::parseUnsigned(Argv[++I], Context))
        return usage(Argv[0]);
    } else if (Arg == "--quiescent") {
      Quiescent = true;
    } else if (Arg == "--resume") {
      Resume = true;
    } else if (Arg == "--epochs" && I + 1 < Argc) {
      if (!tools::parseUnsigned(Argv[++I], Epochs))
        return usage(Argv[0]);
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else {
      Path = Arg;
    }
  }
  bool ViewLevel = Mode == "view";
  size_t NumObjects = 0;
  PipelineFactory Factory;
  if (Path.empty() ||
      !resolveProgramPipeline(ProgName, ViewLevel, NumObjects, Factory) ||
      (Mode != "io" && Mode != "view") || MaxViolations == 0 ||
      Audit > UINT32_MAX || Context > UINT32_MAX || Epochs > UINT32_MAX ||
      (Resume && Epochs > 0))
    return usage(Argv[0]);

  // From zero by default; --resume restores from the front sidecar only
  // (the cold restart); --epochs N additionally splits at every sidecar
  // and checks the epochs on N threads.
  EpochCheckOptions EO;
  EO.Checker.Mode = ViewLevel ? CheckMode::CM_ViewRefinement
                              : CheckMode::CM_IORefinement;
  EO.Checker.AuditPeriod = static_cast<unsigned>(Audit);
  EO.Checker.QuiescentOnly = Quiescent;
  EO.Checker.ContextRecords = static_cast<unsigned>(Context);
  EO.UseSnapshots = Resume || Epochs > 0;
  EO.ResumeOnly = Resume;
  EO.Threads = std::max(1u, static_cast<unsigned>(Epochs));
  EpochReport ER = epochCheck(Path, NumObjects, Factory, EO);
  if (!ER.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", ER.Error.c_str());
    return 2;
  }
  // --max-violations caps the printed list only: the count line and the
  // exit code come from every violation found.
  const VerifierReport &R = ER.Report;
  size_t Listed = std::min<uint64_t>(R.Violations.size(), MaxViolations);
  std::printf("%s", R.str(Listed).c_str());
  if (Context > 0)
    for (size_t I = 0; I != Listed; ++I)
      if (const Violation &V = R.Violations[I]; !V.Context.empty())
        std::printf("\ncontext of #%llu:\n%s",
                    static_cast<unsigned long long>(V.Seq),
                    V.Context.c_str());
  std::printf("epochs: %llu, tasks: %llu, serial rechecks: %llu\n",
              static_cast<unsigned long long>(ER.Epochs),
              static_cast<unsigned long long>(ER.Tasks),
              static_cast<unsigned long long>(ER.SerialRechecks));
  return R.ok() ? 0 : 1;
}
