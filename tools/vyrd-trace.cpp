//===- vyrd-trace.cpp - Convert a VYRD log to Chrome trace JSON -----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Converts a binary log file produced by BufferedLog into
// Chrome/Perfetto trace_event JSON (load it at https://ui.perfetto.dev or
// chrome://tracing). Timestamps are virtual: one log record = 1 us; see
// docs/OBSERVABILITY.md, "Trace mapping".
//
//   vyrd-trace <log-file> [-o <out.json>]
//
// Tracks: one per implementation thread (method spans with commit/write
// instants), plus a synthesized "verifier" track carrying one instant per
// commit in witness order — the order the checker processes them. (An
// online run with TelemetryOptions::TraceFilePath additionally shows the
// verifier's real check-batch spans.)
//
// Exit codes: 0 converted, 2 usage or I/O error.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Log.h"
#include "vyrd/Trace.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

using namespace vyrd;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr, "usage: %s <log-file> [-o <out.json>]\n", Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path, OutPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-o" && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      return usage(Argv[0]);
    }
  }
  if (Path.empty())
    return usage(Argv[0]);

  std::vector<Action> Log;
  if (!loadLogFile(Path, Log)) {
    std::fprintf(stderr, "error: cannot read log file '%s'\n", Path.c_str());
    return 2;
  }

  TraceRecorder TR;
  // The method currently executing per thread, so verifier-track commit
  // instants can be named (the recorder tracks this for its own tracks,
  // but the verifier track is synthesized here).
  std::map<ThreadId, std::string> Current;
  for (const Action &A : Log) {
    TR.noteAction(A);
    switch (A.Kind) {
    case ActionKind::AK_Call:
      Current[A.Tid] = std::string(A.Method.str());
      break;
    case ActionKind::AK_Return:
      Current.erase(A.Tid);
      break;
    case ActionKind::AK_Commit: {
      // Witness order: the checker processes commits in log order.
      std::string Name = "commit t" + std::to_string(A.Tid);
      auto It = Current.find(A.Tid);
      if (It != Current.end())
        Name += " " + It->second;
      TR.noteVerifierInstant(A.Seq, std::move(Name));
      break;
    }
    default:
      break;
    }
  }

  if (OutPath.empty()) {
    std::string Doc = TR.json();
    std::fwrite(Doc.data(), 1, Doc.size(), stdout);
    return 0;
  }
  if (!TR.writeFile(OutPath)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 2;
  }
  std::fprintf(stderr, "%s: %zu records -> %zu trace events -> %s\n",
               Path.c_str(), Log.size(), TR.eventCount(), OutPath.c_str());
  return 0;
}
