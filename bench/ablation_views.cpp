//===- ablation_views.cpp - Ablations for the design choices ---------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation studies for the design decisions DESIGN.md calls out:
//
//  A. Incremental view maintenance (Sec. 6.4) vs rebuilding both views
//     from scratch at every commit — checking the same recorded trace.
//  B. Audit period: the cost of periodically deep-comparing the
//     incremental views against rebuilt ones.
//
// Expected shape: incremental wins by a growing factor as the structure
// gets larger; audits add cost inversely proportional to their period.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace vyrd;
using namespace vyrd::harness;
using namespace vyrd::bench;

namespace {

std::vector<Action> recordTrace(Program P, unsigned Threads, unsigned Ops) {
  std::string Path =
      "/tmp/vyrd-abl-" + std::to_string(getpid()) + ".bin";
  ScenarioOptions SO;
  SO.Prog = P;
  SO.Mode = RunMode::RM_LogOnlyView;
  SO.LogPath = Path;
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = Ops;
  WO.KeyPoolSize = 48;
  WO.Seed = 31;
  runScenario(SO, WO, false);
  std::vector<Action> Trace;
  loadLogFile(Path, Trace);
  std::remove(Path.c_str());
  return Trace;
}

double checkTrace(Program P, const std::vector<Action> &Trace,
                  bool FullRecompute, unsigned AuditPeriod) {
  ScenarioOptions SO;
  SO.Prog = P;
  SO.Mode = RunMode::RM_OfflineView;
  SO.FullViewRecompute = FullRecompute;
  SO.AuditPeriod = AuditPeriod;
  Scenario S = makeScenario(SO);
  Timed T = timed([&] {
    for (const Action &A : Trace)
      S.L->append(A);
    VerifierReport R = S.Finish();
    if (!R.ok())
      std::printf("  !! unexpected violation: %s\n",
                  R.Violations.front().str().c_str());
  });
  return T.Cpu > 0 ? T.Cpu : T.Wall;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  BenchJson BJ("ablation_views", Args.JsonPath);
  auto jsonRow = [&BJ](const std::string &Config, unsigned Threads,
                       size_t Records, double Secs) {
    char Extra[96];
    std::snprintf(Extra, sizeof(Extra), "{\"cpu_s\":%.4f,\"records\":%zu}",
                  Secs, Records);
    BJ.row(Config, Threads, Records && Secs > 0 ? Secs * 1e9 / Records : 0,
           Secs > 0 ? double(Records) / Secs : 0, Extra);
  };

  std::printf("Ablation A: incremental vs full view recomputation "
              "(offline check CPU seconds)\n\n");
  std::printf("%-22s %10s %12s %12s %8s\n", "Program", "records",
              "incremental", "full-rebuild", "speedup");
  hr();
  struct Load {
    Program P;
    unsigned Threads, Ops;
  };
  std::vector<Load> Loads = {
      {Program::P_MultisetVector, 4, 2500},
      {Program::P_Vector, 4, 2500},
      {Program::P_BLinkTree, 4, 1200},
      {Program::P_Cache, 4, 1500},
  };
  if (Args.Quick)
    Loads = {{Program::P_MultisetVector, 4, 400}};
  for (auto &L : Loads) {
    std::vector<Action> Trace = recordTrace(L.P, L.Threads, L.Ops);
    double Inc = checkTrace(L.P, Trace, false, 0);
    double Full = checkTrace(L.P, Trace, true, 0);
    std::printf("%-22s %10zu %12.3f %12.3f %7.1fx\n", programName(L.P),
                Trace.size(), Inc, Full, Inc > 0 ? Full / Inc : 0);
    jsonRow(std::string(programName(L.P)) + "-incremental", L.Threads,
            Trace.size(), Inc);
    jsonRow(std::string(programName(L.P)) + "-full-rebuild", L.Threads,
            Trace.size(), Full);
  }
  hr();

  std::printf("\nAblation B: audit period (BLinkTree trace)\n\n");
  std::printf("%-14s %12s\n", "audit period", "CPU seconds");
  hr('-', 30);
  {
    std::vector<Action> Trace =
        recordTrace(Program::P_BLinkTree, 4, Args.Quick ? 300 : 1200);
    std::vector<unsigned> Periods =
        Args.Quick ? std::vector<unsigned>{0u, 16u}
                   : std::vector<unsigned>{0u, 1024u, 256u, 64u, 16u, 4u, 1u};
    for (unsigned Period : Periods) {
      double T = checkTrace(Program::P_BLinkTree, Trace, false, Period);
      if (Period)
        std::printf("%-14u %12.3f\n", Period, T);
      else
        std::printf("%-14s %12.3f\n", "off", T);
      jsonRow("audit-period-" +
                  (Period ? std::to_string(Period) : std::string("off")),
              4, Trace.size(), T);
    }
  }
  hr('-', 30);

  std::printf("\nExpected shape: incremental maintenance beats full "
              "rebuilds by a factor that\ngrows with structure size; "
              "frequent audits approach full-rebuild cost.\n");
  return BJ.write() ? 0 : 1;
}
