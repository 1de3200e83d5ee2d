//===- ToolsTest.cpp - End-to-end tests for the CLI tools ------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises vyrd-logdump and vyrd-check as real subprocesses against a
/// freshly recorded log (paths injected by CMake via VYRD_LOGDUMP_PATH /
/// VYRD_CHECK_PATH).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "harness/Scenarios.h"
#include "harness/Workload.h"
#include "vyrd/Snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace vyrd;
using namespace vyrd::harness;

namespace {

/// Runs a command, captures stdout, returns the exit code.
int runTool(const std::string &Cmd, std::string &Out) {
  Out.clear();
  FILE *P = ::popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = ::pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Records a multiset run (buggy or clean) into \p Path.
void recordLog(const std::string &Path, bool Buggy) {
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_LogOnlyView;
  SO.Buggy = Buggy;
  SO.LogPath = Path;
  Scenario S = makeScenario(SO);
  Chaos::enable(4, 7);
  WorkloadOptions WO;
  WO.Threads = 6;
  WO.OpsPerThread = 120;
  WO.KeyPoolSize = 12;
  WO.Seed = 7;
  runWorkload(WO, S.Op);
  Chaos::disable();
  S.Finish();
}

std::string tempLog(const char *Tag) {
  return std::string(::testing::TempDir()) + "vyrd-toolstest-" + Tag +
         "-" + std::to_string(::getpid()) + ".bin";
}

} // namespace

TEST(ToolsTest, LogdumpPrintsRecords) {
  std::string Path = tempLog("dump");
  recordLog(Path, false);
  std::string Out;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path +
                       " --limit 5",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("call"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, LogdumpStats) {
  std::string Path = tempLog("stats");
  recordLog(Path, false);
  std::string Out;
  int RC =
      runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path + " --stats",
              Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("by kind"), std::string::npos) << Out;
  EXPECT_NE(Out.find("Insert"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, LogdumpFiltersByKind) {
  std::string Path = tempLog("filter");
  recordLog(Path, false);
  std::string Out;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path +
                       " --kind commit --limit 3",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("commit"), std::string::npos);
  EXPECT_EQ(Out.find("call"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, LogdumpRejectsMissingFile) {
  std::string Out;
  EXPECT_NE(runTool(std::string(VYRD_LOGDUMP_PATH) +
                        " /nonexistent-xyz/f.bin",
                    Out),
            0);
}

TEST(ToolsTest, CheckCleanLogExitsZero) {
  std::string Path = tempLog("clean");
  recordLog(Path, false);
  std::string Out;
  int RC = runTool(std::string(VYRD_CHECK_PATH) + " " + Path +
                       " --program multiset",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("no refinement violations"), std::string::npos)
      << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, CheckBuggyLogExitsOneWithViolations) {
  std::string Path = tempLog("buggy");
  // The bug is probabilistic: try a few recordings.
  int RC = 0;
  std::string Out;
  for (int Try = 0; Try < 10 && RC == 0; ++Try) {
    recordLog(Path, true);
    RC = runTool(std::string(VYRD_CHECK_PATH) + " " + Path +
                     " --program multiset --context 8",
                 Out);
  }
  EXPECT_EQ(RC, 1) << Out;
  EXPECT_NE(Out.find("violation"), std::string::npos) << Out;
  EXPECT_NE(Out.find("context of"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, CheckIOModeWorks) {
  std::string Path = tempLog("iomode");
  recordLog(Path, false);
  std::string Out;
  int RC = runTool(std::string(VYRD_CHECK_PATH) + " " + Path +
                       " --program multiset --mode io",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, CheckRejectsBadUsage) {
  std::string Out;
  EXPECT_EQ(runTool(std::string(VYRD_CHECK_PATH) + " /tmp/x.bin "
                    "--program not-a-program",
                    Out),
            2);
  EXPECT_NE(Out.find("usage"), std::string::npos) << Out;
}

TEST(ToolsTest, LogdumpStatsAsJson) {
  std::string Path = tempLog("statsjson");
  recordLog(Path, false);
  std::string Out;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path +
                       " --stats --json",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_TRUE(test::jsonValid(Out)) << Out;
  EXPECT_NE(Out.find("\"records\":"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"by_kind\":"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"by_thread\":"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// vyrd-trace
//===----------------------------------------------------------------------===//

namespace {

/// Writes a small deterministic log: the golden input for the trace
/// conversion tests.
///   t1: call Insert / write / commit / return
///   t2: call LookUp / return
void writeGoldenLog(const std::string &Path) {
  BufferedLog::Options O;
  O.FilePath = Path;
  BufferedLog L(O);
  ASSERT_TRUE(L.valid());
  Name Ins = internName("golden.Insert");
  Name Look = internName("golden.LookUp");
  Name Var = internName("golden.elt");
  L.append(Action::call(1, Ins, {Value(int64_t(3))}));
  L.append(Action::write(1, Var, Value(int64_t(3))));
  L.append(Action::call(2, Look, {Value(int64_t(3))}));
  L.append(Action::commit(1));
  L.append(Action::ret(1, Ins, Value(true)));
  L.append(Action::ret(2, Look, Value(false)));
  L.close();
}

} // namespace

TEST(ToolsTest, TraceConvertsGoldenLogToValidJson) {
  std::string Path = tempLog("trace-golden");
  writeGoldenLog(Path);
  std::string Out;
  int RC = runTool(std::string(VYRD_TRACE_PATH) + " " + Path, Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_TRUE(test::jsonValid(Out)) << Out;

  // 6 log records -> 6 impl-track events + 1 synthesized verifier commit
  // instant; rendered alongside 1 process_name + 3 thread_name metadata
  // events (tracks: t1, t2, verifier). Every event carries one "ph".
  EXPECT_EQ(test::countOccurrences(Out, "\"ph\":"), 11u);
  EXPECT_EQ(test::countOccurrences(Out, "\"name\":\"thread_name\""), 3u);
  // The commit instant lands on both its own track and the verifier
  // track, named after the enclosing method / witness position.
  EXPECT_NE(Out.find("\"name\":\"commit golden.Insert\""),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"name\":\"commit t1 golden.Insert\",\"ph\":\"i\","
                     "\"pid\":1,\"tid\":1000000,\"ts\":3"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("\"name\":\"verifier\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"time_base\":\"virtual: 1 log record = 1 us\""),
            std::string::npos)
      << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, TraceWritesOutputFile) {
  std::string Path = tempLog("trace-out");
  writeGoldenLog(Path);
  std::string OutPath = tempLog("trace-json") + ".json";
  std::string Out;
  int RC = runTool(std::string(VYRD_TRACE_PATH) + " " + Path + " -o " +
                       OutPath,
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  // -o mode reports a summary on stderr instead of dumping the document.
  EXPECT_NE(Out.find("6 records -> 7 trace events"), std::string::npos)
      << Out;

  std::FILE *F = std::fopen(OutPath.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Doc;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Doc.append(Buf, N);
  std::fclose(F);
  EXPECT_TRUE(test::jsonValid(Doc)) << Doc;
  std::remove(Path.c_str());
  std::remove(OutPath.c_str());
}

TEST(ToolsTest, TraceConvertsRealWorkloadLog) {
  std::string Path = tempLog("trace-real");
  recordLog(Path, false);
  std::string Out;
  int RC = runTool(std::string(VYRD_TRACE_PATH) + " " + Path, Out);
  EXPECT_EQ(RC, 0);
  EXPECT_TRUE(test::jsonValid(Out)) << Out.substr(0, 400);
  EXPECT_NE(Out.find("\"name\":\"impl thread"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(ToolsTest, TraceRejectsMissingFileAndBadUsage) {
  std::string Out;
  EXPECT_EQ(runTool(std::string(VYRD_TRACE_PATH) +
                        " /nonexistent-xyz/f.bin",
                    Out),
            2);
  EXPECT_EQ(runTool(std::string(VYRD_TRACE_PATH) + " --bogus", Out), 2);
  EXPECT_NE(Out.find("usage"), std::string::npos) << Out;
}

TEST(ToolsTest, LogdumpReadsLegacyV1Log) {
  // A v1 (headerless) file written byte-by-byte: a name definition, a
  // call, a commit and a return. The tool must still read it — the
  // back-compat path of docs/LOGFORMAT.md — attributing everything to
  // object 0.
  std::string Path = tempLog("v1");
  const uint8_t V1[] = {
      0xFF, 1, 1, 'm',        // define name #1 = "m"
      0x00, 2, 0, 1, 0, 0, 0, 0, // call: tid 2, seq 0, method m
      0x02, 2, 1, 0, 0, 0, 0, 0, // commit: tid 2, seq 1
      0x01, 2, 2, 1, 0, 0,       // return: tid 2, seq 2, method m,
      1,    1, 0,                //   ret = bool true, val = null
  };
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(std::fwrite(V1, 1, sizeof(V1), F), sizeof(V1));
  std::fclose(F);

  std::string Out;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path, Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("call m"), std::string::npos) << Out;
  int RC2 = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path +
                        " --stats --json",
                    Out);
  EXPECT_EQ(RC2, 0) << Out;
  EXPECT_NE(Out.find("\"records\":3"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"objects\":1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"by_object\":{\"0\":3}"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Snapshots: --resume / --epochs / --snapshots
//===----------------------------------------------------------------------===//

namespace {

/// Records a clean multiset run as a segmented chain with snapshot
/// sidecars (optionally reclaiming the checked prefix, which is what a
/// crashed verifier leaves behind).
void recordSnapshotChain(const std::string &Base, bool Reclaim) {
  ScenarioOptions SO;
  SO.Prog = Program::P_MultisetVector;
  SO.Mode = RunMode::RM_OnlineView;
  SO.LogPath = Base;
  SO.Backpressure.SegmentBytes = 8 * 1024;
  SO.Backpressure.ReclaimSegments = Reclaim;
  SO.Snapshots = true;
  Scenario S = makeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = 4;
  WO.OpsPerThread = 400;
  WO.Seed = 21;
  runWorkload(WO, S.Op);
  VerifierReport R = S.Finish();
  ASSERT_TRUE(R.ok()) << R.str();
}

void removeSnapshotChain(const std::string &Base) {
  std::remove(Base.c_str());
  for (uint64_t I = 1; I <= 128; ++I) {
    std::remove(logSegmentPath(Base, I).c_str());
    std::remove(snapshotSidecarPath(Base, I).c_str());
  }
}

} // namespace

TEST(ToolsTest, CheckResumesFromReclaimedChain) {
  std::string Base = tempLog("resume");
  removeSnapshotChain(Base);
  recordSnapshotChain(Base, /*Reclaim=*/true);
  std::string Out;
  int RC = runTool(std::string(VYRD_CHECK_PATH) + " " + Base +
                       " --program multiset --resume",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("no refinement violations"), std::string::npos) << Out;
  EXPECT_NE(Out.find("epochs: 1"), std::string::npos) << Out;
  removeSnapshotChain(Base);
}

TEST(ToolsTest, CheckEpochsSplitsAtSidecars) {
  std::string Base = tempLog("epochs");
  removeSnapshotChain(Base);
  recordSnapshotChain(Base, /*Reclaim=*/false);
  std::string Out;
  int RC = runTool(std::string(VYRD_CHECK_PATH) + " " + Base +
                       " --program multiset --epochs 2",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("no refinement violations"), std::string::npos) << Out;
  EXPECT_NE(Out.find("serial rechecks: 0"), std::string::npos) << Out;
  // The 8 KiB segments must have produced at least one sidecar, so the
  // chain splits into at least two epochs.
  EXPECT_EQ(Out.find("epochs: 0,"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("epochs: 1,"), std::string::npos) << Out;
  removeSnapshotChain(Base);
}

TEST(ToolsTest, CheckRejectsResumeCombinedWithEpochs) {
  std::string Out;
  EXPECT_EQ(runTool(std::string(VYRD_CHECK_PATH) +
                        " /tmp/x.bin --program multiset --resume --epochs 2",
                    Out),
            2);
  EXPECT_NE(Out.find("usage"), std::string::npos) << Out;
}

TEST(ToolsTest, LogdumpPrintsSnapshotSidecars) {
  std::string Base = tempLog("snapdump");
  removeSnapshotChain(Base);
  recordSnapshotChain(Base, /*Reclaim=*/false);
  std::string Out;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Base +
                       " --snapshots",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("segment 000001"), std::string::npos) << Out;
  EXPECT_NE(Out.find("(no sidecar)"), std::string::npos)
      << "segment 1 never has one: " << Out;
  EXPECT_NE(Out.find("sidecar: watermark="), std::string::npos) << Out;
  EXPECT_NE(Out.find("blob bytes"), std::string::npos) << Out;
  removeSnapshotChain(Base);
}

TEST(ToolsTest, LogdumpObjectFilterAndStats) {
  // A composite (four-object) log: --obj narrows the dump to one object
  // and the stats gain the per-object dimension.
  std::string Path = tempLog("multiobj");
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_LogOnlyView;
  SO.LogPath = Path;
  Scenario S = makeCompositeScenario(SO);
  WorkloadOptions WO;
  WO.Threads = 2;
  WO.OpsPerThread = 150;
  runWorkload(WO, S.Op);
  S.Finish();

  std::string Out;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path +
                       " --stats --json",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("\"objects\":4"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"by_object\":{"), std::string::npos) << Out;

  int RC2 = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path +
                        " --obj 2 --limit 20",
                    Out);
  EXPECT_EQ(RC2, 0) << Out;
  EXPECT_NE(Out.find(" o2 "), std::string::npos) << Out;
  EXPECT_EQ(Out.find(" o1 "), std::string::npos) << Out;
  EXPECT_EQ(Out.find(" o3 "), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(ToolsTest, LogdumpStatsJsonIncludesSnapshotInventory) {
  std::string Base = tempLog("snapjson");
  removeSnapshotChain(Base);
  recordSnapshotChain(Base, /*Reclaim=*/false);

  std::string FromBase;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Base +
                       " --stats --json",
                   FromBase);
  EXPECT_EQ(RC, 0) << FromBase;
  EXPECT_TRUE(test::jsonValid(FromBase)) << FromBase;
  EXPECT_NE(FromBase.find("\"snapshots\":["), std::string::npos) << FromBase;
  EXPECT_NE(FromBase.find("\"sidecar\":true"), std::string::npos) << FromBase;
  EXPECT_NE(FromBase.find("\"watermark\":"), std::string::npos) << FromBase;
  EXPECT_NE(FromBase.find("\"blob_bytes\":"), std::string::npos) << FromBase;

  // Pointing at an explicit segment file renders the same inventory:
  // the tool normalizes back to the chain base (CI diffs the two).
  std::string FromSegment;
  int RC2 = runTool(std::string(VYRD_LOGDUMP_PATH) + " " +
                        logSegmentPath(Base, 1) + " --stats --json",
                    FromSegment);
  EXPECT_EQ(RC2, 0) << FromSegment;
  EXPECT_EQ(FromBase, FromSegment);
  removeSnapshotChain(Base);
}

TEST(ToolsTest, LogdumpStatsJsonPlainLogHasEmptySnapshots) {
  std::string Path = tempLog("plainsnap");
  recordLog(Path, false);
  std::string Out;
  int RC = runTool(std::string(VYRD_LOGDUMP_PATH) + " " + Path +
                       " --stats --json",
                   Out);
  EXPECT_EQ(RC, 0) << Out;
  EXPECT_NE(Out.find("\"snapshots\":[]"), std::string::npos) << Out;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// vyrd-mon
//===----------------------------------------------------------------------===//

TEST(ToolsTest, MonOneShotCommandsAgainstLiveServer) {
  // An in-process monitor endpoint stands in for a live verifier: the
  // CLI only ever sees the socket.
  Telemetry Hub;
  Hub.count(Counter::C_HookRecords, 123);
  TelemetryMonitorSource Src(Hub);
  MonitorOptions MO;
  MO.SocketPath =
      "/tmp/vyrd-toolstest-mon-" + std::to_string(::getpid()) + ".sock";
  MonitorServer Server(MO, Src);
  ASSERT_TRUE(Server.valid()) << Server.error();
  std::string Mon = std::string(VYRD_MON_PATH) + " --socket " +
                    MO.SocketPath;

  std::string Out;
  EXPECT_EQ(runTool(Mon + " --json", Out), 0) << Out;
  EXPECT_TRUE(test::jsonValid(Out)) << Out;
  EXPECT_NE(Out.find("\"hook_records\":123"), std::string::npos) << Out;

  EXPECT_EQ(runTool(Mon + " health", Out), 0) << Out;
  EXPECT_NE(Out.find("\"health\":\"ok\""), std::string::npos) << Out;

  EXPECT_EQ(runTool(Mon + " --prom", Out), 0) << Out;
  EXPECT_NE(Out.find("vyrd_hook_records_total 123"), std::string::npos)
      << Out;
  EXPECT_EQ(Out.find("# EOF"), std::string::npos)
      << "framing marker must not leak into the dump: " << Out;

  EXPECT_EQ(runTool(Mon + " watch --interval 10", Out), 0) << Out;
  EXPECT_TRUE(test::jsonValid(Out)) << Out;

  EXPECT_EQ(runTool(Mon + " top --count 1", Out), 0) << Out;
  EXPECT_NE(Out.find("vyrd:"), std::string::npos) << Out;
}

TEST(ToolsTest, MonFailsCleanlyWithoutServer) {
  std::string Out;
  EXPECT_EQ(runTool(std::string(VYRD_MON_PATH) +
                        " --socket /tmp/vyrd-no-such.sock health",
                    Out),
            1);
  EXPECT_NE(Out.find("cannot connect"), std::string::npos) << Out;
  EXPECT_EQ(runTool(std::string(VYRD_MON_PATH) + " --bogus", Out), 2);
  EXPECT_NE(Out.find("usage"), std::string::npos) << Out;
}
