//===- vyrd-logdump.cpp - Inspect a recorded VYRD log ----------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Dumps a binary log file produced by BufferedLog in human-readable form.
//
//   vyrd-logdump <log-file> [--limit N] [--tid T] [--obj O] [--kind K]
//                [--stats] [--json] [--snapshots]
//
//   --limit N   print at most N records
//   --tid T     only records of thread T
//   --obj O     only records of verified object O (multi-object logs)
//   --kind K    only records of kind K (call, return, commit, write,
//               block-begin, block-end, replay-op)
//   --stats     print per-kind / per-method / per-thread / per-object
//               counts instead of records
//   --json      with --stats: emit the summary as one JSON object
//   --snapshots walk the segment chain and print each segment with its
//               snapshot sidecar (LOGFORMAT v5), if any, instead of
//               records
//
// Reads every log format version: current ("VYRD" header + per-record
// ObjectId, single value slot), v2 (two value slots), and legacy
// headerless v1 files; v1 records all belong to object 0. Rotated
// segment chains (v4, docs/LOGFORMAT.md "Segmented chains") are walked
// transparently: point the tool at the base path (or any segment file)
// and it reads through to the end of the chain.
//
// The whole tool is one streaming decode pass (LogFileReader): records are
// decoded into a reused buffer and counted or printed immediately, so
// multi-GB logs run in constant memory. --stats counts into dense arrays
// keyed by ActionKind / interned Name id / thread / object — the same
// interned-name table the checker uses — and materializes strings only
// when the summary is rendered, never per record.
//
//===----------------------------------------------------------------------===//

#include "ParseArgs.h"
#include "vyrd/Log.h"
#include "vyrd/Snapshot.h"
#include "vyrd/Value.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace vyrd;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <log-file> [--limit N] [--tid T] [--obj O] "
               "[--kind K] [--stats] [--json] [--snapshots]\n",
               Argv0);
  return 2;
}

/// Dense counter array indexed by a small id (thread, object, name id).
/// Grown on demand; ids are dense in every producer, so this stays small.
class DenseCounts {
public:
  void bump(size_t Id) {
    if (Id >= Counts.size())
      Counts.resize(Id + 1, 0);
    ++Counts[Id];
  }
  size_t size() const { return Counts.size(); }
  uint64_t operator[](size_t Id) const {
    return Id < Counts.size() ? Counts[Id] : 0;
  }

private:
  std::vector<uint64_t> Counts;
};

/// Streaming --stats accumulators: one O(1) bump per record, no strings.
struct LogStats {
  uint64_t Records = 0;
  uint64_t ByKind[7] = {};
  DenseCounts ByMethod; ///< indexed by interned Name id (AK_Call only)
  DenseCounts ByThread;
  DenseCounts ByObject;

  void add(const Action &A) {
    ++Records;
    ++ByKind[static_cast<size_t>(A.Kind)];
    if (A.Kind == ActionKind::AK_Call)
      ByMethod.bump(A.Method.id());
    ByThread.bump(A.Tid);
    ByObject.bump(A.Obj);
  }
};

/// Renders the non-zero entries of \p C as a JSON object, keys produced
/// by \p Key.
template <typename KeyFn>
std::string countsJson(const DenseCounts &C, KeyFn Key) {
  std::string Out = "{";
  bool First = true;
  for (size_t I = 0; I < C.size(); ++I) {
    if (!C[I])
      continue;
    if (!First)
      Out += ",";
    First = false;
    Out += '"';
    Out += Key(I);
    Out += "\":";
    Out += std::to_string(C[I]);
  }
  return Out + "}";
}

/// Chain base of \p Path: a trailing `.NNNNNN` segment suffix is
/// stripped, so `base` and `base.000001` render identical inventories
/// (the CI round-trip diffs the two).
std::string chainBaseOf(const std::string &Path) {
  size_t Dot = Path.rfind('.');
  if (Dot == std::string::npos || Path.size() - Dot - 1 != 6)
    return Path;
  for (size_t I = Dot + 1; I < Path.size(); ++I)
    if (!std::isdigit(static_cast<unsigned char>(Path[I])))
      return Path;
  return Path.substr(0, Dot);
}

/// The --snapshots inventory as a JSON array: one entry per chain
/// segment with its sidecar summary. Empty for plain (unsegmented) logs.
std::string snapshotsJson(const std::string &Path) {
  std::vector<ChainSegment> Segs;
  // Normalize to the chain base first; fall back to the literal path
  // (a plain log, possibly with a numeric-suffix name).
  if (!enumerateChain(chainBaseOf(Path), Segs) || Segs.empty())
    if (!enumerateChain(Path, Segs))
      Segs.clear();
  std::string Out = "[";
  bool First = true;
  for (const ChainSegment &Seg : Segs) {
    if (Seg.Index == 0)
      continue; // plain log: no sidecars possible
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"segment\":" + std::to_string(Seg.Index) + ",\"path\":\"" +
           jsonEscape(Seg.Path) +
           "\",\"first_seq\":" + std::to_string(Seg.FirstSeq) +
           ",\"sidecar\":" + (Seg.HasSnapshot ? "true" : "false");
    if (Seg.HasSnapshot) {
      Out += ",\"watermark\":" + std::to_string(Seg.Snap.Watermark) +
             ",\"objects\":[";
      for (size_t I = 0; I < Seg.Snap.Objects.size(); ++I) {
        const SnapshotObject &O = Seg.Snap.Objects[I];
        if (I)
          Out += ",";
        Out += "{\"id\":" + std::to_string(O.Id) + ",\"name\":\"" +
               jsonEscape(O.Name) +
               "\",\"blob_bytes\":" + std::to_string(O.Blob.size()) + "}";
      }
      Out += "]";
    }
    Out += "}";
  }
  return Out + "]";
}

int printStats(const LogStats &S, bool Json,
               const std::string &SnapshotsJson) {
  // Threads/objects are counted as "max id + 1" (ids are dense), matching
  // how the harness and the verifier number them.
  uint64_t Threads = S.ByThread.size();
  uint64_t NumObjects = S.ByObject.size();
  if (Json) {
    std::string ByKind = "{";
    bool First = true;
    for (size_t K = 0; K < 7; ++K) {
      if (!S.ByKind[K])
        continue;
      if (!First)
        ByKind += ",";
      First = false;
      ByKind += std::string("\"") +
                actionKindName(static_cast<ActionKind>(K)) +
                "\":" + std::to_string(S.ByKind[K]);
    }
    ByKind += "}";
    std::string ByMethod = countsJson(
        S.ByMethod, [](size_t I) {
          return std::string(Name(static_cast<uint32_t>(I)).str());
        });
    auto Numeric = [](size_t I) { return std::to_string(I); };
    // The snapshot-sidecar inventory (--snapshots data) rides along in
    // the same document, so one invocation answers both questions.
    std::printf("{\"records\":%llu,\"threads\":%llu,\"objects\":%llu,"
                "\"by_kind\":%s,\"method_calls\":%s,\"by_thread\":%s,"
                "\"by_object\":%s,\"snapshots\":%s}\n",
                static_cast<unsigned long long>(S.Records),
                static_cast<unsigned long long>(Threads),
                static_cast<unsigned long long>(NumObjects),
                ByKind.c_str(), ByMethod.c_str(),
                countsJson(S.ByThread, Numeric).c_str(),
                countsJson(S.ByObject, Numeric).c_str(),
                SnapshotsJson.c_str());
    return 0;
  }
  std::printf("%llu records, %llu thread(s), %llu object(s)\n",
              static_cast<unsigned long long>(S.Records),
              static_cast<unsigned long long>(Threads),
              static_cast<unsigned long long>(NumObjects));
  std::printf("\nby kind:\n");
  for (size_t K = 0; K < 7; ++K)
    if (S.ByKind[K])
      std::printf("  %-12s %10llu\n",
                  actionKindName(static_cast<ActionKind>(K)),
                  static_cast<unsigned long long>(S.ByKind[K]));
  std::printf("\nmethod calls:\n");
  for (size_t I = 0; I < S.ByMethod.size(); ++I)
    if (S.ByMethod[I])
      std::printf("  %-24s %10llu\n",
                  std::string(Name(static_cast<uint32_t>(I)).str()).c_str(),
                  static_cast<unsigned long long>(S.ByMethod[I]));
  std::printf("\nby thread:\n");
  for (size_t T = 0; T < S.ByThread.size(); ++T)
    if (S.ByThread[T])
      std::printf("  t%-11llu %10llu\n", static_cast<unsigned long long>(T),
                  static_cast<unsigned long long>(S.ByThread[T]));
  std::printf("\nby object:\n");
  for (size_t O = 0; O < S.ByObject.size(); ++O)
    if (S.ByObject[O])
      std::printf("  o%-11llu %10llu\n", static_cast<unsigned long long>(O),
                  static_cast<unsigned long long>(S.ByObject[O]));
  return 0;
}

/// --snapshots: renders the segment chain with its v5 sidecars.
int printSnapshots(const std::string &Path) {
  std::vector<ChainSegment> Segs;
  if (!enumerateChain(Path, Segs) || Segs.empty()) {
    std::fprintf(stderr, "error: no log file or segment chain at '%s'\n",
                 Path.c_str());
    return 1;
  }
  for (const ChainSegment &Seg : Segs) {
    if (Seg.Index == 0) {
      std::printf("%s: plain (unsegmented) log, no sidecars possible\n",
                  Seg.Path.c_str());
      continue;
    }
    std::printf("segment %06llu  %s  first_seq=%llu",
                static_cast<unsigned long long>(Seg.Index),
                Seg.Path.c_str(),
                static_cast<unsigned long long>(Seg.FirstSeq));
    if (!Seg.HasSnapshot) {
      std::printf("  (no sidecar)\n");
      continue;
    }
    std::printf("\n  sidecar: watermark=%llu, %zu object(s)\n",
                static_cast<unsigned long long>(Seg.Snap.Watermark),
                Seg.Snap.Objects.size());
    for (const SnapshotObject &O : Seg.Snap.Objects)
      std::printf("    o%u%s%s  %zu blob bytes\n", O.Id,
                  O.Name.empty() ? "" : " ", O.Name.c_str(),
                  O.Blob.size());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Path;
  uint64_t Limit = UINT64_MAX;
  std::optional<uint64_t> Tid, Obj;
  std::string KindFilter;
  bool Stats = false;
  bool Json = false;
  bool Snapshots = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--limit" && I + 1 < Argc) {
      if (!tools::parseUnsigned(Argv[++I], Limit))
        return usage(Argv[0]);
    } else if (Arg == "--tid" && I + 1 < Argc) {
      if (!tools::parseUnsigned(Argv[++I], N))
        return usage(Argv[0]);
      Tid = N;
    } else if (Arg == "--obj" && I + 1 < Argc) {
      if (!tools::parseUnsigned(Argv[++I], N))
        return usage(Argv[0]);
      Obj = N;
    } else if (Arg == "--kind" && I + 1 < Argc) {
      KindFilter = Argv[++I];
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--snapshots") {
      Snapshots = true;
    } else if (Arg[0] == '-') {
      return usage(Argv[0]);
    } else {
      Path = Arg;
    }
  }
  if (Path.empty())
    return usage(Argv[0]);
  if (Snapshots)
    return printSnapshots(Path);

  LogFileReader Reader(Path);
  if (!Reader.valid()) {
    std::fprintf(stderr, "error: cannot read log file '%s'\n",
                 Path.c_str());
    return 1;
  }

  LogStats S;
  uint64_t Printed = 0;
  Action A;
  while ((Stats || Printed < Limit) && Reader.next(A)) {
    if (Stats) {
      S.add(A);
      continue;
    }
    if (Tid && A.Tid != *Tid)
      continue;
    if (Obj && A.Obj != *Obj)
      continue;
    if (!KindFilter.empty() && KindFilter != actionKindName(A.Kind))
      continue;
    std::printf("%s\n", A.str().c_str());
    ++Printed;
  }
  if (Reader.malformed()) {
    std::fprintf(stderr, "error: cannot read log file '%s'\n",
                 Path.c_str());
    return 1;
  }

  if (Stats)
    return printStats(S, Json, Json ? snapshotsJson(Path) : std::string());
  return 0;
}
