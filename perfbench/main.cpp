//===- main.cpp - Pipeline benchmark entry point --------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// vyrd-perfbench --workload <composite-replay|hashtable-paced> --seed <n>
//                --seconds <s> --trace <0|1> --work-dir <dir>
// vyrd-perfbench --selftest --seed <n> --work-dir <dir>
//
// Prints progress and the host record to stderr/stdout and, as the last
// line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exit 0 whenever a result line was printed
// (a failed verdict guard shows as "correct": false), 2 on usage errors.
// Normally run through run.py, which builds this binary first.
//
//===----------------------------------------------------------------------===//

#include "perfbench.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <string>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: vyrd-perfbench --workload "
               "<composite-replay|hashtable-paced> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n"
               "       vyrd-perfbench --selftest --seed <n> --work-dir "
               "<dir>\n",
               Why);
  return 2;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos) {
        std::string M = Line.substr(Colon + 1);
        M.erase(0, M.find_first_not_of(' '));
        std::replace(M.begin(), M.end(), '"', '\'');
        return M;
      }
    }
  return "unknown";
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--selftest") {
      SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--work-dir")
      A.WorkDir = V;
    else
      return usage(("unknown option " + K).c_str());
  }
  if (A.WorkDir.empty())
    return usage("--work-dir is required");
  if (!(A.Seconds > 0))
    return usage("--seconds must be positive");
  // Recordings go to a directory of this process's own, so concurrent
  // invocations sharing a build tree never clobber each other's files.
  A.SpanDir = A.WorkDir;
  A.WorkDir.append("/").append(std::to_string(getpid()));
  std::error_code EC;
  std::filesystem::create_directories(A.WorkDir, EC);
  if (EC)
    return usage(("cannot create " + A.WorkDir).c_str());

  if (SelfTest) {
    std::string Why = buggyReplaySelfCheck(A.WorkDir, A.Seed);
    std::filesystem::remove_all(A.WorkDir, EC);
    std::printf("selftest: %s\n", Why.empty() ? "ok" : Why.c_str());
    return Why.empty() ? 0 : 1;
  }

  // Host record: the load-generating threads of this invocation must
  // not exceed the cores, or the measurement is of the scheduler.
  long NProc = sysconf(_SC_NPROCESSORS_ONLN);
  unsigned Load = A.Workload == "composite-replay" ? ReplayFeederThreads
                                                   : PacedGeneratorThreads;
  if (A.Trace)
    Load = std::max({Load, LayerAppThreads, EpochThreads});
  if (NProc > 0 && Load > static_cast<unsigned long>(NProc)) {
    std::fprintf(stderr,
                 "error: %u load-generating threads exceed nproc = %ld\n",
                 Load, NProc);
    return 2;
  }

  if (A.Workload != "composite-replay" && A.Workload != "hashtable-paced")
    return usage(("unknown workload '" + A.Workload + "'").c_str());
  // Before any thread starts: the generators' and VYRD's threads inherit
  // it, so the flusher's idle sleeps and the paced bursts keep time.
  tightTimerSlack();
  // Every replay and round builds a fresh pipeline. Keep freed memory in
  // the heap for the next one instead of returning it to the kernel: on a
  // virtual machine, faulting fresh pages back in costs a host-dependent
  // amount of CPU that would show up as VYRD's cost.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  RunResult R;
  {
    IdlePollers Pollers(NProc > 0 ? static_cast<unsigned>(NProc) : 1);
    R = A.Workload == "composite-replay" ? runCompositeReplay(A)
                                         : runHashtablePaced(A);
  }

  std::filesystem::remove_all(A.WorkDir, EC);

  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "verdict guard: %s\n", P.c_str());
  std::printf("{\"host\": {\"nproc\": %ld, \"cpu\": \"%s\", \"build_type\": "
              "\"%s\", \"load_threads\": %u}}\n",
              NProc, cpuModel().c_str(), PERFBENCH_BUILD_TYPE, Load);
  std::printf("%s\n", R.json().c_str());
  return 0;
}
