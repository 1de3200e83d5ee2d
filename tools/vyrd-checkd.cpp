//===- vyrd-checkd.cpp - Long-running remote checker service --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The checker fleet's daemon (docs/SHIPPING.md): listens for shipping
// producers (Verifiers started with VerifierConfig::Shipping, or
// `quickstart --ship`), runs one CheckerService per session, acks fed
// watermarks so producers can reclaim their checked prefixes, and writes
// `<session>.report.json` when a stream closes.
//
//   vyrd-checkd --listen ENDPOINT [options]
//
//   --listen ENDPOINT    unix:<path> or tcp:<host>:<port> (required)
//   --control PATH       monitor registry socket: `vyrd-mon --socket PATH
//                        list` names the live sessions, `--mon NAME`
//                        attaches to one (full vyrd-mon protocol)
//   --checker-threads N  checker pool size per session (default 1)
//   --report-dir DIR     where session reports go (default ".")
//   --once               exit after the first session completes
//
// Sessions name their pipelines via the Hello's program field: one of
// the harness program names (multiset, bst, vector, stringbuffer,
// blinktree, cache, scanfs, hashtable, queue) for a single-object
// stream, or "composite" for the four-object composite scenario. An
// unknown program refuses the stream (the producer degrades locally).
//
// SIGINT/SIGTERM stop the daemon cleanly: in-flight sessions finish over
// what they fed and their reports are written before exit.
//
//===----------------------------------------------------------------------===//

#include "ParseArgs.h"
#include "harness/Scenarios.h"
#include "vyrd/ShipServer.h"

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <time.h>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

std::atomic<bool> StopRequested{false};

void onSignal(int) { StopRequested.store(true, std::memory_order_release); }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --listen ENDPOINT [--control SOCKET] "
               "[--checker-threads N] [--report-dir DIR] [--once]\n"
               "  ENDPOINT: unix:<path> or tcp:<host>:<port>\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  ShipServerOptions Opts;
  Opts.ReportDir = ".";
  std::string Control;
  bool Once = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--listen" && I + 1 < Argc) {
      Opts.Listen = Argv[++I];
    } else if (Arg == "--control" && I + 1 < Argc) {
      Control = Argv[++I];
    } else if (Arg == "--checker-threads" && I + 1 < Argc) {
      uint64_t N = 0;
      if (!tools::parseUnsigned(Argv[++I], N) || N > UINT_MAX)
        return usage(Argv[0]);
      Opts.CheckerThreads = static_cast<unsigned>(N);
    } else if (Arg == "--report-dir" && I + 1 < Argc) {
      Opts.ReportDir = Argv[++I];
    } else if (Arg == "--once") {
      Once = true;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Opts.Listen.empty() || Opts.CheckerThreads == 0)
    return usage(Argv[0]);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  MonitorRegistry Registry;
  ShipServer Server(Opts, resolveProgramPipeline, &Registry);
  if (!Server.valid()) {
    std::fprintf(stderr, "vyrd-checkd: %s\n", Server.error().c_str());
    return 1;
  }
  std::unique_ptr<MonitorServer> Mon;
  if (!Control.empty()) {
    MonitorOptions MO;
    MO.SocketPath = Control;
    Mon = std::make_unique<MonitorServer>(MO, Registry);
    if (!Mon->valid()) {
      std::fprintf(stderr, "vyrd-checkd: control socket: %s\n",
                   Mon->error().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "vyrd-checkd: listening on %s\n",
               Opts.Listen.c_str());

  timespec Tick{0, 100 * 1000 * 1000};
  while (!StopRequested.load(std::memory_order_acquire)) {
    if (Once && Server.sessionsCompleted() > 0)
      break;
    nanosleep(&Tick, nullptr);
  }
  Server.stop(); // finalizes truncated sessions, writes their reports
  return 0;
}
