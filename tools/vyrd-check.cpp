//===- vyrd-check.cpp - Offline refinement check of a recorded log ---------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Replays a recorded log through the refinement checker against one of
// the bundled program specifications (post-mortem verification, the
// "VYRD alone" mode of Table 3).
//
//   vyrd-check <log-file> --program <name> [--mode io|view]
//              [--max-violations N] [--audit N] [--quiescent]
//              [--context N]   (attach the last N records to violations)
//              [--resume]      (cold restart from the snapshot sidecar of
//                               the oldest live segment, docs/SNAPSHOTS.md)
//              [--epochs N]    (split each object's stream at snapshot
//                               sidecars and check the epochs on N threads)
//
// Program names: multiset, bst, vector, stringbuffer, blinktree, cache,
// scanfs, hashtable, queue — plus "composite" (the four-object harness
// scenario) for --resume/--epochs. Exit code: 0 clean, 1 violations
// found, 2 usage/IO error.
//
//===----------------------------------------------------------------------===//

#include "harness/Scenarios.h"
#include "vyrd/Epoch.h"
#include "vyrd/Log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

bool parseProgram(const std::string &S, Program &Out) {
  if (S == "multiset")
    Out = Program::P_MultisetVector;
  else if (S == "bst")
    Out = Program::P_MultisetBst;
  else if (S == "vector")
    Out = Program::P_Vector;
  else if (S == "stringbuffer")
    Out = Program::P_StringBuffer;
  else if (S == "blinktree")
    Out = Program::P_BLinkTree;
  else if (S == "cache")
    Out = Program::P_Cache;
  else if (S == "scanfs")
    Out = Program::P_ScanFs;
  else if (S == "hashtable")
    Out = Program::P_Hashtable;
  else if (S == "queue")
    Out = Program::P_Queue;
  else
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path, ProgName, Mode = "view";
  long MaxViolations = 16, Audit = 0, Context = 0, Epochs = 0;
  bool Quiescent = false, Resume = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--program" && I + 1 < Argc) {
      ProgName = Argv[++I];
    } else if (Arg == "--mode" && I + 1 < Argc) {
      Mode = Argv[++I];
    } else if (Arg == "--max-violations" && I + 1 < Argc) {
      MaxViolations = std::atol(Argv[++I]);
    } else if (Arg == "--audit" && I + 1 < Argc) {
      Audit = std::atol(Argv[++I]);
    } else if (Arg == "--context" && I + 1 < Argc) {
      Context = std::atol(Argv[++I]);
    } else if (Arg == "--quiescent") {
      Quiescent = true;
    } else if (Arg == "--resume") {
      Resume = true;
    } else if (Arg == "--epochs" && I + 1 < Argc) {
      Epochs = std::atol(Argv[++I]);
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else {
      Path = Arg;
    }
  }
  bool Composite = ProgName == "composite";
  Program Prog = Program::P_MultisetVector;
  if (Path.empty() || (!Composite && !parseProgram(ProgName, Prog)) ||
      (Mode != "io" && Mode != "view") || Audit < 0 || Context < 0 ||
      Epochs < 0 || (Resume && Epochs > 0))
    return usage(Argv[0]);

  // The snapshot paths: check the chain through epochCheck instead of a
  // scenario replay. --resume restores from the front sidecar only (the
  // cold restart); --epochs N additionally splits at every sidecar and
  // checks the (object, epoch) matrix on N threads.
  if (Resume || Epochs > 0) {
    bool ViewLevel = Mode == "view";
    EpochCheckOptions EO;
    EO.Checker.Mode = ViewLevel ? CheckMode::CM_ViewRefinement
                                : CheckMode::CM_IORefinement;
    EO.Checker.AuditPeriod = static_cast<unsigned>(Audit);
    EO.Checker.QuiescentOnly = Quiescent;
    EO.Checker.ContextRecords = static_cast<unsigned>(Context);
    EO.Threads = Resume ? 1 : static_cast<unsigned>(Epochs);
    EO.ResumeOnly = Resume;
    size_t NumObjects = Composite ? 4 : 1;
    PipelineFactory Factory = Composite
                                  ? makeCompositePipeline(ViewLevel)
                                  : makeProgramPipeline(Prog, ViewLevel);
    EpochReport ER = epochCheck(Path, NumObjects, Factory, EO);
    if (!ER.Error.empty()) {
      std::fprintf(stderr, "error: %s\n", ER.Error.c_str());
      return 2;
    }
    if (MaxViolations >= 0 &&
        ER.Report.Violations.size() > static_cast<size_t>(MaxViolations))
      ER.Report.Violations.resize(static_cast<size_t>(MaxViolations));
    std::printf("%s", ER.Report.str().c_str());
    std::printf("epochs: %llu, tasks: %llu, serial rechecks: %llu\n",
                static_cast<unsigned long long>(ER.Epochs),
                static_cast<unsigned long long>(ER.Tasks),
                static_cast<unsigned long long>(ER.SerialRechecks));
    return ER.Report.ok() ? 0 : 1;
  }
  if (Composite) {
    std::fprintf(stderr,
                 "error: --program composite requires --resume or "
                 "--epochs N (the plain replay path is single-object)\n");
    return 2;
  }

  std::vector<Action> Log;
  if (!loadLogFile(Path, Log)) {
    std::fprintf(stderr, "error: cannot read log file '%s'\n",
                 Path.c_str());
    return 2;
  }

  ScenarioOptions SO;
  SO.Prog = Prog;
  SO.Mode = Mode == "view" ? RunMode::RM_OfflineView
                           : RunMode::RM_OfflineIO;
  SO.AuditPeriod = static_cast<unsigned>(Audit);
  SO.QuiescentOnly = Quiescent;
  SO.ContextRecords = static_cast<unsigned>(Context);
  Scenario S = makeScenario(SO);
  // Note: the scenario's own construction may append a few setup records
  // (e.g. the B-link tree's initial root) before the replayed ones; the
  // replay is idempotent with respect to them.
  for (const Action &A : Log)
    S.L->append(A);
  VerifierReport R = S.Finish();
  if (MaxViolations >= 0 &&
      R.Violations.size() > static_cast<size_t>(MaxViolations))
    R.Violations.resize(static_cast<size_t>(MaxViolations));

  std::printf("%s", R.str().c_str());
  if (Context > 0)
    for (const Violation &V : R.Violations)
      if (!V.Context.empty())
        std::printf("\ncontext of #%llu:\n%s",
                    static_cast<unsigned long long>(V.Seq),
                    V.Context.c_str());
  return R.ok() ? 0 : 1;
}
