//===- workloads.cpp - The measured end-to-end workloads ------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// composite-replay: set-up records the composite scenario (multiset +
// cache + B-link tree + queue) view-level to a file. The measured phase
// replays that file, one thread reading it with LogFileReader and
// appending every record to log().writer() of a fresh online Verifier
// (buffered log, BP_Block at 16384 pending, a pool of 2 checkers), timed
// from the first append until finish() returns, replay after replay for
// the run's seconds. A probe operation every 1024 records is checked
// like any other; the traced run's latency replays, paced at a fixed
// record rate, time append-to-checked with them.
//
// hashtable-paced: 2 generator threads drive the java.util.Hashtable
// model open loop at 250k ops/s in total against an online Verifier
// (buffered log, BP_Block, inline checker), in rounds of about two
// seconds on fresh pipelines. Each generator issues a burst of
// operations every millisecond, runs the same operations on a bare table
// of its own (the reference for the overheads), and sleeps until the
// next tick. Every 64th operation of a generator is followed by a probe
// operation whose due time is its burst's due time, so latency includes
// generator lateness.
//
//===----------------------------------------------------------------------===//

#include "programs.h"

#include "vyrd/BufferedLog.h"

#include <cstdio>
#include <thread>

using namespace vyrd;

namespace perfbench {
namespace {

constexpr unsigned SetupReps = 3;

//===----------------------------------------------------------------------===//
// composite-replay
//===----------------------------------------------------------------------===//

/// Open-loop feeds issue their records or operations in bursts, one burst
/// per tick, and sleep between bursts.
constexpr uint64_t TickNs = 1000000;

constexpr unsigned RecordThreads = 4;
constexpr unsigned RecordOpsPerThread = 60000;
constexpr uint64_t ReplayProbeEvery = 1024;
constexpr unsigned ReplayCheckers = 2;
/// Small enough that how full the queue happens to run adds little to
/// peak RSS.
constexpr size_t MaxPending = 16384;
/// The traced run's latency replays feed their first LagRecords records
/// at LagRecPerS, about a sixth of what the pipeline sustains on an idle
/// host, and the rest of the stream unpaced.
constexpr double LagRecPerS = 500000;
constexpr uint64_t LagRecords = 300000;

struct ReplayOutcome {
  double WallS = 0;
  uint64_t FeederCpuNs = 0;
  uint64_t ProcCpuNs = 0;
  uint64_t Records = 0;
  /// Stream records that never reached their object's checker.
  uint64_t Missing = 0;
  uint64_t Probes = 0;
  uint64_t MissingProbes = 0;
  std::vector<double> LagUs;
  VerifierReport Report;
};

/// One replay of the recording at \p Path into a fresh Verifier, as fast
/// as the pipeline admits or, with \p PaceRecPerS, its first
/// \p PacedRecords records at that rate (one burst per tick) and the rest
/// unpaced; LagUs then holds the lags of the paced records' probes only.
/// With \p S set, every probe interval of the feed is recorded as a span.
ReplayOutcome replayOnce(const Program &P, const std::string &Path,
                         const StreamInfo &Info, Spans *S, int Parent,
                         double PaceRecPerS = 0, uint64_t PacedRecords = 0) {
  auto Board = std::make_shared<ProbeBoard>(Info.Records / ReplayProbeEvery +
                                            1);
  Hooks PH;
  std::unique_ptr<Verifier> V =
      makeOnlineVerifier(P, ReplayCheckers, MaxPending, Board, PH);
  LogFileReader Rd(Path);
  ReplayOutcome O;
  LogWriter &W = V->log().writer();
  if (PaceRecPerS <= 0)
    PacedRecords = 0;
  const uint64_t PerTick = std::max<uint64_t>(
      1, static_cast<uint64_t>(PaceRecPerS * static_cast<double>(TickNs) /
                               1e9));
  uint64_t Proc0 = processCpuNs();
  uint64_t Feed0 = threadCpuNs();
  uint64_t T0 = nowNs();
  int Span = S ? S->begin("replay.feed", Parent) : -1;
  Action A;
  while (Rd.next(A)) {
    if (O.Records < PacedRecords && O.Records % PerTick == 0)
      sleepUntil(T0 + O.Records / PerTick * TickNs);
    W.append(std::move(A));
    if (++O.Records % ReplayProbeEvery == 0) {
      Board->DueNs[O.Probes] = nowNs();
      emitProbe(PH, O.Probes++);
      if (S) {
        S->end(Span);
        Span = S->begin("replay.feed", Parent);
      }
    }
  }
  if (S) {
    S->end(Span);
    Span = S->begin("replay.finish", Parent);
  }
  uint64_t Feed1 = threadCpuNs();
  O.Report = V->finish();
  if (S)
    S->end(Span);
  O.WallS = static_cast<double>(nowNs() - T0) / 1e9;
  O.ProcCpuNs = processCpuNs() - Proc0;
  O.FeederCpuNs = Feed1 - Feed0;
  Board->lagsUs(O.Probes, O.MissingProbes);
  uint64_t MissingPaced = 0;
  O.LagUs = Board->lagsUs(PacedRecords / ReplayProbeEvery, MissingPaced);
  if (O.Records < Info.Records)
    O.Missing += Info.Records - O.Records;
  for (size_t I = 0; I < Info.PerObject.size(); ++I) {
    uint64_t Got = I < O.Report.Objects.size() ? O.Report.Objects[I].Records
                                               : 0;
    if (Got < Info.PerObject[I])
      O.Missing += Info.PerObject[I] - Got;
  }
  return O;
}

/// The reference for overhead_x: the CPU of the same feed into a
/// discarding log.
uint64_t referenceFeedCpuNs(const std::string &Path) {
  DiscardLog L;
  LogWriter &W = L.writer();
  LogFileReader Rd(Path);
  uint64_t Cpu0 = threadCpuNs();
  Action A;
  while (Rd.next(A))
    W.append(std::move(A));
  return threadCpuNs() - Cpu0;
}

/// Folds one replay's verdict into \p R: a clean replay must report no
/// violation, route every record and check every probe.
void accountReplay(const ReplayOutcome &O, RunResult &R) {
  R.Attempted += O.Records;
  if (!O.Report.ok()) {
    R.Failed += O.Records;
    R.fail("clean composite replay reported " +
           std::to_string(O.Report.Violations.size()) + " violation(s)");
    return;
  }
  R.Failed += O.Missing;
  if (O.Missing)
    R.fail(std::to_string(O.Missing) + " replayed record(s) never checked");
  if (O.MissingProbes)
    R.fail(std::to_string(O.MissingProbes) + " probe(s) never checked");
}

/// Records the composite set-up stream SetupReps times (the median is
/// setup_s) and scans the last recording.
StreamInfo compositeSetup(const Program &P, const RunArgs &A,
                          const std::string &Path, double &SetupS) {
  std::vector<double> Times;
  StreamInfo Info;
  for (unsigned I = 0; I < SetupReps; ++I) {
    uint64_t T0 = nowNs();
    recordStream(P, Path, RecordThreads, RecordOpsPerThread, A.Seed);
    Info = scanStream(Path, P.objects().size());
    Times.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  SetupS = median(Times);
  return Info;
}

//===----------------------------------------------------------------------===//
// hashtable-paced
//===----------------------------------------------------------------------===//

/// Operations per second, all generators: about a third of what the
/// inline checker sustains on an idle host, so the pipeline stays below
/// saturation when neighbours slow the host down severalfold.
constexpr double PacedRate = 250000;
constexpr uint64_t PacedProbeEvery = 64;
/// Target length of one hashtable-paced round.
constexpr double PacedRoundSeconds = 2;

/// A started Verifier over the hashtable plus the probe object, and the
/// instrumented table bound to it.
struct PacedRig {
  std::shared_ptr<ProbeBoard> Board;
  Hooks ProbeHooks;
  std::unique_ptr<Verifier> V;
  std::unique_ptr<javalib::SyncHashtable> Table;

  PacedRig(const Program &P, uint64_t Ops)
      : Board(std::make_shared<ProbeBoard>(Ops / PacedProbeEvery +
                                           PacedGeneratorThreads)) {
    V = makeOnlineVerifier(P, 1, MaxPending, Board, ProbeHooks);
    Table = std::make_unique<javalib::SyncHashtable>(
        javalib::SyncHashtable::Options(), V->hooks(0));
  }
};

struct PacedOutcome {
  uint64_t Ops = 0;
  double WallS = 0;    ///< first due time -> finish() returned
  double GenWallS = 0; ///< first due time -> last generator done
  /// Generator CPU inside the bursts (program calls and probes), and in
  /// all (bursts plus pacing).
  uint64_t AppCpuNs = 0;
  uint64_t GenCpuNs = 0;
  uint64_t ProcCpuNs = 0;
  uint64_t Probes = 0;
  uint64_t MissingProbes = 0;
  uint64_t Missing = 0;
  std::vector<double> LagUs;
  /// Lateness of every burst against its due time.
  std::vector<double> LateUs;
  /// Generator CPU per operation of every burst, and of the same burst's
  /// operations run bare right after it (see pacedOnce).
  std::vector<double> BurstNs, BareBurstNs;
  /// Per CpuWindowNs window while all generators ran: the CPU of every
  /// other thread per operation issued in it.
  std::vector<double> WindowVyrdNs;
  VerifierReport Report;
};

/// How often the main thread samples CPU during a paced round.
constexpr uint64_t CpuWindowNs = 50000000;

/// The seed of round \p Round's operations. Every round draws its own key
/// pool, so one run's figures are medians over many pools, not one.
uint64_t roundSeed(uint64_t Seed, unsigned Round) {
  return Seed * 1000 + Round;
}

/// Runs the first round's seeded operations bare on one thread: the
/// set-up's warm-up of the program's code and of the allocator.
void warmUpBare(uint64_t Seed, uint64_t OpsPerGen) {
  javalib::SyncHashtable T(javalib::SyncHashtable::Options{}, Hooks{});
  for (unsigned Stream = 0; Stream < PacedGeneratorThreads; ++Stream) {
    HtOpStream St(roundSeed(Seed, 0), Stream, OpsPerGen);
    for (uint64_t I = 0; I < OpsPerGen; ++I)
      applyHtOp(T, St.next());
  }
}

/// Drives \p Rig open loop with round \p Round's operations (generator
/// G replays stream G of roundSeed(Seed, Round)) and finishes its Verifier.
/// Each generator issues one burst per tick, due at the tick's start, and
/// sleeps between bursts; the generators' ticks are staggered. After each
/// burst the generator runs the same operations on a bare table of its
/// own: the reference for the overheads, taken on the same thread at the
/// same moment. Meanwhile the calling thread samples CPU every
/// CpuWindowNs. With \p S set, every 64 bursts of a generator are a span.
PacedOutcome pacedOnce(PacedRig &Rig, uint64_t Seed, unsigned Round,
                       uint64_t OpsPerGen, Spans *S, int Parent) {
  const unsigned Gens = PacedGeneratorThreads;
  const uint64_t PerTick = std::max<uint64_t>(
      1, static_cast<uint64_t>(PacedRate / Gens *
                               static_cast<double>(TickNs) / 1e9));
  struct GenResult {
    uint64_t AppCpuNs = 0, CpuNs = 0, EndNs = 0;
    std::vector<double> LateUs, BurstNs, BareBurstNs;
    /// Operations issued and thread CPU so far, as of the last burst.
    std::atomic<uint64_t> OpsDone{0}, CpuDone{0};
  };
  std::vector<GenResult> GR(Gens);
  std::atomic<unsigned> Running{Gens};
  PacedOutcome O;
  O.Ops = OpsPerGen * Gens;
  uint64_t Proc0 = processCpuNs();
  const uint64_t T0 = nowNs() + 2000000; // let the generators start
  std::vector<std::thread> Threads;
  for (unsigned G = 0; G < Gens; ++G)
    Threads.emplace_back([&, G] {
      GenResult &Me = GR[G];
      Me.LateUs.reserve(OpsPerGen / PerTick + 1);
      Me.BurstNs.reserve(OpsPerGen / PerTick + 1);
      Me.BareBurstNs.reserve(OpsPerGen / PerTick + 1);
      HtOpStream St(roundSeed(Seed, Round), G, OpsPerGen);
      HtOpStream BareSt(roundSeed(Seed, Round), G, OpsPerGen);
      javalib::SyncHashtable Bare(javalib::SyncHashtable::Options{}, Hooks{});
      uint64_t Cpu0 = threadCpuNs();
      uint64_t SpanStart = T0;
      for (uint64_t I = 0, Tick = 0; I < OpsPerGen; ++Tick) {
        uint64_t Due = T0 + Tick * TickNs + G * TickNs / Gens;
        uint64_t Now = sleepUntil(Due);
        Me.LateUs.push_back(static_cast<double>(Now - Due) / 1e3);
        uint64_t BurstCpu0 = threadCpuNs();
        uint64_t E = std::min(OpsPerGen, I + PerTick);
        const uint64_t N = E - I;
        for (; I < E; ++I) {
          applyHtOp(*Rig.Table, St.next());
          if (I % PacedProbeEvery == 0) {
            uint64_t Id = (I / PacedProbeEvery) * Gens + G;
            Rig.Board->DueNs[Id] = Due;
            emitProbe(Rig.ProbeHooks, Id);
          }
        }
        uint64_t BurstCpu1 = threadCpuNs();
        for (uint64_t J = 0; J < N; ++J)
          applyHtOp(Bare, BareSt.next());
        uint64_t BareCpu1 = threadCpuNs();
        Me.AppCpuNs += BurstCpu1 - BurstCpu0;
        Me.BurstNs.push_back(static_cast<double>(BurstCpu1 - BurstCpu0) /
                             static_cast<double>(N));
        Me.BareBurstNs.push_back(static_cast<double>(BareCpu1 - BurstCpu1) /
                                 static_cast<double>(N));
        Me.CpuDone.store(BareCpu1 - Cpu0, std::memory_order_relaxed);
        Me.OpsDone.store(I, std::memory_order_release);
        if (S && (Tick + 1) % 64 == 0) {
          uint64_t E = nowNs();
          S->add("paced.generate", SpanStart, E, Parent);
          SpanStart = E;
        }
      }
      Me.CpuNs = threadCpuNs() - Cpu0;
      Me.EndNs = nowNs();
      Running.fetch_sub(1, std::memory_order_release);
    });
  // CPU samples: a window counts only if every generator ran through it.
  struct Sample {
    uint64_t ProcNs = 0, GenNs = 0, Ops = 0;
  };
  auto sample = [&] {
    Sample X;
    for (const GenResult &G : GR) {
      X.Ops += G.OpsDone.load(std::memory_order_acquire);
      X.GenNs += G.CpuDone.load(std::memory_order_relaxed);
    }
    X.ProcNs = processCpuNs();
    return X;
  };
  sleepUntil(T0);
  Sample Prev = sample();
  for (uint64_t W = T0 + CpuWindowNs;; W += CpuWindowNs) {
    sleepUntil(W);
    if (Running.load(std::memory_order_acquire) != Gens)
      break;
    Sample Cur = sample();
    if (Cur.Ops > Prev.Ops)
      O.WindowVyrdNs.push_back(
          static_cast<double>((Cur.ProcNs - Prev.ProcNs) -
                              (Cur.GenNs - Prev.GenNs)) /
          static_cast<double>(Cur.Ops - Prev.Ops));
    Prev = Cur;
  }
  for (std::thread &T : Threads)
    T.join();
  int Fin = S ? S->begin("paced.finish", Parent) : -1;
  O.Report = Rig.V->finish();
  if (S)
    S->end(Fin);
  uint64_t End = nowNs();
  O.ProcCpuNs = processCpuNs() - Proc0;
  O.WallS = static_cast<double>(End - T0) / 1e9;
  uint64_t GenEnd = T0;
  for (const GenResult &G : GR) {
    O.AppCpuNs += G.AppCpuNs;
    O.GenCpuNs += G.CpuNs;
    GenEnd = std::max(GenEnd, G.EndNs);
    O.LateUs.insert(O.LateUs.end(), G.LateUs.begin(), G.LateUs.end());
    O.BurstNs.insert(O.BurstNs.end(), G.BurstNs.begin(), G.BurstNs.end());
    O.BareBurstNs.insert(O.BareBurstNs.end(), G.BareBurstNs.begin(),
                         G.BareBurstNs.end());
  }
  O.GenWallS = static_cast<double>(GenEnd - T0) / 1e9;
  O.Probes = ((OpsPerGen + PacedProbeEvery - 1) / PacedProbeEvery) * Gens;
  O.LagUs = Rig.Board->lagsUs(O.Probes, O.MissingProbes);
  uint64_t Checked =
      O.Report.Objects.empty() ? 0 : O.Report.Objects[0].Stats.MethodsChecked;
  if (Checked < O.Ops)
    O.Missing = O.Ops - Checked;
  return O;
}

void accountPaced(const PacedOutcome &O, RunResult &R) {
  R.Attempted += O.Ops;
  if (!O.Report.ok()) {
    R.Failed += O.Ops;
    R.fail("clean hashtable run reported " +
           std::to_string(O.Report.Violations.size()) + " violation(s)");
    return;
  }
  uint64_t Routed = 0;
  for (const ObjectReport &Obj : O.Report.Objects)
    Routed += Obj.Records;
  if (Routed != O.Report.LogRecords)
    R.fail("records checked (" + std::to_string(Routed) +
           ") != records produced (" + std::to_string(O.Report.LogRecords) +
           ")");
  R.Failed += O.Missing;
  if (O.Missing)
    R.fail(std::to_string(O.Missing) + " operation(s) never checked");
  if (O.MissingProbes)
    R.fail(std::to_string(O.MissingProbes) + " probe(s) never checked");
}

/// Generator CPU in the bursts plus process CPU besides the generators',
/// per op, over the whole round.
double pacedCostPerOp(const PacedOutcome &O) {
  return static_cast<double>(O.AppCpuNs + (O.ProcCpuNs - O.GenCpuNs)) /
         static_cast<double>(O.Ops);
}

void removeFile(const std::string &Path) { std::remove(Path.c_str()); }

//===----------------------------------------------------------------------===//
// Traced runs
//===----------------------------------------------------------------------===//

/// Untraced/traced pairs of the end-to-end phase in a traced run.
constexpr unsigned TracedReps = 3;
constexpr unsigned TracedPacedPhases = 2;

/// The per-layer metrics a traced run takes from its own end-to-end
/// phases: backpressure accounting, generator lateness (0 on a closed-loop
/// feed), latency, CPU per operation of the load threads and of the rest
/// of the process, the verdict guard's failed share and the tracing
/// overhead (traced minus untraced cost, as a share of untraced).
void addTracedVerdict(RunResult &R, const std::vector<double> &Blocked,
                      const std::vector<double> &Hwm,
                      const std::vector<double> &Late99,
                      const std::vector<double> &Lag50,
                      const std::vector<double> &Lag99,
                      const std::vector<double> &AppNs,
                      const std::vector<double> &VyrdNs, double Overhead) {
  R.add("backpressure.blocked_appends", median(Blocked), "count");
  R.add("backpressure.pending_hwm", median(Hwm), "count");
  R.add("gen.late_us_p99", median(Late99), "us");
  R.add("lag_p50_us", median(Lag50), "us");
  R.add("lag_p99_us", median(Lag99), "us");
  R.add("app_cpu_ns_per_op", median(AppNs), "ns");
  R.add("vyrd_cpu_ns_per_op", median(VyrdNs), "ns");
  R.add("failed_share",
        R.Attempted ? static_cast<double>(R.Failed) /
                          static_cast<double>(R.Attempted)
                    : 1.0,
        "share");
  R.add("trace.overhead_share", Overhead, "share");
}

} // namespace

std::string buggyReplaySelfCheck(const std::string &WorkDir, uint64_t Seed) {
  std::unique_ptr<Program> P = makeCompositeProgram();
  std::string Path = WorkDir + "/composite-buggy.log";
  // The injected multiset race needs an unlucky interleaving; chaos
  // yields make it likely, and a recording where it did not fire is
  // simply recorded again.
  constexpr unsigned Attempts = 8;
  std::string Why = "no violation in " + std::to_string(Attempts) +
                    " buggy recordings";
  for (unsigned I = 0; I < Attempts; ++I) {
    Chaos::enable(4, Seed * 31 + I + 1);
    recordStream(*P, Path, RecordThreads, 1500, Seed * 31 + I, true);
    Chaos::disable();
    StreamInfo Info = scanStream(Path, P->objects().size());
    if (!Info.Ok) {
      Why = "buggy recording is unreadable";
      break;
    }
    ReplayOutcome O = replayOnce(*P, Path, Info, nullptr, -1);
    if (O.Report.ok())
      continue;
    Why.clear();
    for (const Violation &V : O.Report.Violations) {
      std::string Name = V.Obj < O.Report.Objects.size()
                             ? O.Report.Objects[V.Obj].Name
                             : "?";
      if (Name != "multiset") {
        Why = "violation attributed to '" + Name + "', not 'multiset'";
        break;
      }
    }
    break;
  }
  removeFile(Path);
  return Why;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

RunResult runCompositeReplay(const RunArgs &A) {
  std::unique_ptr<Program> P = makeCompositeProgram();
  RunResult R;
  std::string Path = A.WorkDir + "/composite-replay.log";
  double SetupS = 0;
  StreamInfo Info = compositeSetup(*P, A, Path, SetupS);
  if (!Info.Ok) {
    R.fail("set-up recording is unreadable");
    R.Attempted = 1;
    R.Failed = 1;
    return R;
  }
  std::fprintf(stderr,
               "composite-replay: %llu records, %llu operations per replay "
               "(multiset %llu, cache %llu, blinktree %llu, queue %llu), "
               "peak RSS after set-up %.1f MB\n",
               static_cast<unsigned long long>(Info.Records),
               static_cast<unsigned long long>(Info.Calls),
               static_cast<unsigned long long>(Info.PerObject[0]),
               static_cast<unsigned long long>(Info.PerObject[1]),
               static_cast<unsigned long long>(Info.PerObject[2]),
               static_cast<unsigned long long>(Info.PerObject[3]),
               peakRssMb());

  if (!A.Trace) {
    // Unpaced replays, each followed by its reference feed, for the run's
    // seconds. Every metric is a median over the replays, so a replay that
    // a neighbour's burst slowed down cannot move it. CPU costs are
    // ratios to the reference feed's: the host's speed drifts by a fifth
    // over minutes, and both sides of a ratio drift together.
    const double Ops = static_cast<double>(Info.Calls);
    std::vector<double> Rate, Overhead, AppOverhead;
    double RssMb = 0;
    const uint64_t End = nowNs() + static_cast<uint64_t>(A.Seconds * 1e9);
    while (nowNs() < End || Rate.size() < 3) {
      ReplayOutcome O = replayOnce(*P, Path, Info, nullptr, -1);
      accountReplay(O, R);
      Rate.push_back(static_cast<double>(O.Records) / O.WallS);
      const double RefNs = static_cast<double>(referenceFeedCpuNs(Path));
      Overhead.push_back(static_cast<double>(O.ProcCpuNs) / RefNs);
      AppOverhead.push_back(static_cast<double>(O.FeederCpuNs) / RefNs);
      // Every replay builds a fresh Verifier, and the heap's high-water
      // mark creeps over dozens of them (freed blocks stay in the arenas
      // of threads that have exited), which no single pipeline does. Peak
      // RSS is therefore taken after set-up plus the first replay.
      if (Rate.size() == 1)
        RssMb = peakRssMb();
    }
    std::fprintf(stderr, "composite-replay: %zu replays\n", Rate.size());
    const double RecsPerOp = static_cast<double>(Info.Records) / Ops;
    R.add("setup_s", SetupS, "s");
    R.add("verdict_rec_per_s", median(Rate), "rec/s");
    R.add("app_ops_per_s", median(Rate) / RecsPerOp, "ops/s");
    R.add("overhead_x", median(Overhead), "x");
    R.add("app_overhead_x", median(AppOverhead), "x");
    R.add("peak_rss_mb", RssMb, "MB");
  } else {
    // The end-to-end replay, untraced and traced alternately, then the
    // layers in isolation.
    Spans S;
    int Root = S.begin("composite-replay");
    std::vector<double> Plain, Traced, Lag50, Lag99, Blocked, Hwm, AppNs,
        VyrdNs;
    const double Ops = static_cast<double>(Info.Calls);
    for (unsigned I = 0; I < TracedReps; ++I) {
      ReplayOutcome O = replayOnce(*P, Path, Info, nullptr, -1);
      accountReplay(O, R);
      Plain.push_back(O.WallS);
      AppNs.push_back(static_cast<double>(O.FeederCpuNs) / Ops);
      VyrdNs.push_back(static_cast<double>(O.ProcCpuNs - O.FeederCpuNs) /
                       Ops);
      Blocked.push_back(
          static_cast<double>(O.Report.Backpressure.BlockedAppends));
      Hwm.push_back(
          static_cast<double>(O.Report.Backpressure.PendingRecordsHwm));
      SpanScope T(&S, "replay.traced", Root);
      ReplayOutcome OT = replayOnce(*P, Path, Info, &S, T.id());
      accountReplay(OT, R);
      Traced.push_back(OT.WallS);
      ReplayOutcome OL =
          replayOnce(*P, Path, Info, nullptr, -1, LagRecPerS, LagRecords);
      accountReplay(OL, R);
      Lag50.push_back(median(OL.LagUs));
      Lag99.push_back(quantile(OL.LagUs, 0.99));
    }
    addTracedVerdict(R, Blocked, Hwm, {0.0}, Lag50, Lag99, AppNs, VyrdNs,
                     median(Traced) / median(Plain) - 1);
    LayerContext C{*P, A, S};
    C.RecordRate = static_cast<double>(Info.Records) / median(Plain);
    C.LayerOpsPerThread = 20000;
    C.EpochOpsPerThread = 15000;
    runLayerSuite(C, R);
    S.end(Root);
    S.write(A.SpanDir + "/spans-composite-replay-" + std::to_string(A.Seed) +
            ".json");
  }

  std::string Why = buggyReplaySelfCheck(A.WorkDir, A.Seed);
  if (!Why.empty())
    R.fail("buggy replay self-check: " + Why);
  removeFile(Path);
  return R;
}

RunResult runHashtablePaced(const RunArgs &A) {
  std::unique_ptr<Program> P = makeHashtableProgram();
  RunResult R;
  // The run is split into rounds, each on a fresh pipeline (fresh threads,
  // fresh placement); the metrics are medians over the rounds, so one
  // disturbed round cannot move them.
  const unsigned Rounds = std::max(
      3u, static_cast<unsigned>(A.Seconds / PacedRoundSeconds + 0.5));
  const uint64_t OpsPerGen = static_cast<uint64_t>(
      PacedRate * A.Seconds / Rounds / PacedGeneratorThreads);
  const uint64_t OpsPerRound = OpsPerGen * PacedGeneratorThreads;

  if (A.Trace) {
    Spans S;
    int Root = S.begin("hashtable-paced");
    std::vector<double> Plain, Traced, Lag50, Lag99, Late99, Blocked, Hwm,
        Rate, AppNs, VyrdNs;
    for (unsigned I = 0; I < TracedPacedPhases; ++I) {
      PacedRig Plain0(*P, OpsPerRound);
      PacedOutcome O = pacedOnce(Plain0, A.Seed, 2 * I, OpsPerGen, nullptr, -1);
      accountPaced(O, R);
      Plain.push_back(pacedCostPerOp(O));
      AppNs.push_back(median(O.BurstNs));
      VyrdNs.push_back(median(O.WindowVyrdNs));
      Lag50.push_back(median(O.LagUs));
      Lag99.push_back(quantile(O.LagUs, 0.99));
      Late99.push_back(quantile(O.LateUs, 0.99));
      Blocked.push_back(
          static_cast<double>(O.Report.Backpressure.BlockedAppends));
      Hwm.push_back(
          static_cast<double>(O.Report.Backpressure.PendingRecordsHwm));
      Rate.push_back(static_cast<double>(O.Report.LogRecords) / O.GenWallS);
      PacedRig Traced0(*P, OpsPerRound);
      SpanScope T(&S, "paced.traced", Root);
      PacedOutcome OT =
          pacedOnce(Traced0, A.Seed, 2 * I + 1, OpsPerGen, &S, T.id());
      accountPaced(OT, R);
      Traced.push_back(pacedCostPerOp(OT));
    }
    addTracedVerdict(R, Blocked, Hwm, Late99, Lag50, Lag99, AppNs, VyrdNs,
                     median(Traced) / median(Plain) - 1);
    LayerContext C{*P, A, S};
    C.RecordRate = median(Rate);
    C.LayerOpsPerThread = 150000;
    C.EpochOpsPerThread = 60000;
    runLayerSuite(C, R);
    S.end(Root);
    S.write(A.SpanDir + "/spans-hashtable-paced-" + std::to_string(A.Seed) +
            ".json");
    return R;
  }

  // Set-up: the bare warm-up and the first round's pipeline,
  // PacedSetupReps times (each takes a tenth of a second, so more of them).
  constexpr unsigned PacedSetupReps = 2 * SetupReps + 1;
  std::vector<double> Times;
  std::unique_ptr<PacedRig> Rig;
  for (unsigned I = 0; I < PacedSetupReps; ++I) {
    if (Rig) {
      Rig->V->finish();
      Rig.reset();
    }
    uint64_t T0 = nowNs();
    warmUpBare(A.Seed, OpsPerGen);
    Rig = std::make_unique<PacedRig>(*P, OpsPerRound);
    Times.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  // Costs are CPU times, which a neighbour's load or a stolen vCPU does not
  // stretch the way it stretches wall time, taken as ratios to the bare
  // bursts run beside them, since the host's speed drifts by a fifth over
  // minutes.
  std::vector<double> Verdict, OpsRate, Overhead, AppOverhead;
  double RssMb = 0;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    if (!Rig)
      Rig = std::make_unique<PacedRig>(*P, OpsPerRound);
    PacedOutcome O = pacedOnce(*Rig, A.Seed, Round, OpsPerGen, nullptr, -1);
    Rig.reset();
    // As on composite-replay, peak RSS is read before the heap's
    // high-water mark creeps over many fresh pipelines: after the first.
    if (Round == 0)
      RssMb = peakRssMb();
    accountPaced(O, R);
    double Ops = static_cast<double>(O.Ops);
    Verdict.push_back(static_cast<double>(O.Report.LogRecords) / O.WallS);
    OpsRate.push_back(Ops / O.GenWallS);
    // Medians over the round's bursts and CPU windows: a burst that met a
    // full shard ring or a window with a stalled thread cannot move them.
    std::vector<double> BurstX(O.BurstNs.size());
    for (size_t I = 0; I < BurstX.size(); ++I)
      BurstX[I] = O.BurstNs[I] / O.BareBurstNs[I];
    AppOverhead.push_back(median(BurstX));
    Overhead.push_back(AppOverhead.back() +
                       median(O.WindowVyrdNs) / median(O.BareBurstNs));
  }
  R.add("setup_s", median(Times), "s");
  R.add("verdict_rec_per_s", median(Verdict), "rec/s");
  R.add("app_ops_per_s", median(OpsRate), "ops/s");
  R.add("overhead_x", median(Overhead), "x");
  R.add("app_overhead_x", median(AppOverhead), "x");
  R.add("peak_rss_mb", RssMb, "MB");
  return R;
}

} // namespace perfbench
