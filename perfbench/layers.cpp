//===- layers.cpp - The traced per-layer suite ----------------------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each layer is measured from outside, by timing the benchmark's own calls
// into its public functions, on the workload's program and on a stream
// that program recorded:
//
//   program   the seeded operations bare, LayerAppThreads threads
//   hooks     the same operations with the hooks bound to a DiscardLog
//   log       the same operations into a file-sinked BufferedLog, once
//             plain (the logged-vs-bare wall ratio and the stream the
//             later layers use) and once through a TimedLog; the stream
//             appended from LayerAppThreads threads until close(); and a
//             paced single producer against a nextBatch consumer
//   serialize ActionEncoder over the stream, LogFileReader over its file
//   checker_service  routeRange in 256-record batches, inline and with a
//             pool of 2 workers
//   checker   one RefinementChecker per object, plain and with timing
//             spec/replayer decorators plus CollectTimings
//   epoch     a snapshot chain of the program checked by epochCheck from
//             zero on one thread and epoch-parallel on EpochThreads; the
//             sidecars' RefinementChecker::restoreState
//
// Every phase is a span (perfbench.h); phase times come from the spans.
//
//===----------------------------------------------------------------------===//

#include "programs.h"

#include "vyrd/BufferedLog.h"
#include "vyrd/CheckerService.h"
#include "vyrd/Snapshot.h"

#include <algorithm>
#include <cstdio>
#include <thread>

using namespace vyrd;

namespace perfbench {
namespace {

/// Records of the recorded stream the isolated layers work on.
constexpr size_t StreamCap = 300000;
constexpr size_t RouteBatch = 256;
constexpr unsigned PoolWorkers = 2;
constexpr unsigned LoopReps = 3;
constexpr uint64_t ChainSegmentBytes = 256 * 1024;

double seconds(uint64_t Ns) { return static_cast<double>(Ns) / 1e9; }
double ratio(double A, double B) { return B > 0 ? A / B : 0; }

std::vector<Hooks> hooksOver(Log *L, size_t Objects) {
  std::vector<Hooks> H;
  for (size_t I = 0; I < Objects; ++I)
    H.emplace_back(L, LogLevel::LL_View, nullptr, static_cast<ObjectId>(I));
  return H;
}

struct LoopResult {
  uint64_t WallNs = 0;
  uint64_t ThreadNs = 0; ///< summed over the load threads
  uint64_t Ops = 0;
};

/// Runs the program's seeded operations closed loop on LayerAppThreads
/// threads, its objects logging through \p H.
LoopResult runLoop(const Program &P, const std::vector<Hooks> &H,
                   uint64_t Seed, uint64_t OpsPerThread, Spans &S,
                   int Parent, const char *Name) {
  std::unique_ptr<ProgramInstance> Inst = P.instantiate(H);
  std::vector<uint64_t> Ns(LayerAppThreads, 0);
  SpanScope Run(&S, Name, Parent);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < LayerAppThreads; ++T)
    Threads.emplace_back([&, T] {
      uint64_t T0 = nowNs();
      Inst->runOps(T, Seed, OpsPerThread);
      Ns[T] = nowNs() - T0;
    });
  for (std::thread &T : Threads)
    T.join();
  LoopResult R;
  for (uint64_t N : Ns)
    R.ThreadNs += N;
  R.Ops = OpsPerThread * LayerAppThreads;
  S.end(Run.id());
  R.WallNs = S.durationNs(Run.id());
  return R;
}

/// Median-of-LoopReps closed-loop run (by summed thread time).
LoopResult medianLoop(const std::function<LoopResult()> &Run) {
  std::vector<LoopResult> All;
  for (unsigned I = 0; I < LoopReps; ++I)
    All.push_back(Run());
  std::sort(All.begin(), All.end(), [](const LoopResult &A,
                                       const LoopResult &B) {
    return A.ThreadNs < B.ThreadNs;
  });
  return All[All.size() / 2];
}

std::vector<Action> loadPrefix(const std::string &Path, size_t Cap) {
  std::vector<Action> Out;
  LogFileReader Rd(Path);
  Action A;
  while (Out.size() < Cap && Rd.next(A))
    Out.push_back(std::move(A));
  return Out;
}

/// Builds object \p Id's pipeline through \p F.
bool buildPipeline(const PipelineFactory &F, ObjectId Id, std::string &Name,
                   std::unique_ptr<Spec> &S, std::unique_ptr<Replayer> &R) {
  return F(Id, Name, S, R) && S;
}

CheckerConfig viewChecker() {
  CheckerConfig CC;
  CC.Mode = CheckMode::CM_ViewRefinement;
  return CC;
}

void removeChain(const std::string &Base) {
  std::vector<ChainSegment> Segs;
  if (!enumerateChain(Base, Segs))
    return;
  for (const ChainSegment &Seg : Segs) {
    std::remove(Seg.Path.c_str());
    if (Seg.Index)
      std::remove(snapshotSidecarPath(Base, Seg.Index).c_str());
  }
}

} // namespace

void runLayerSuite(const LayerContext &C, RunResult &R) {
  const Program &P = C.Prog;
  Spans &S = C.S;
  const size_t NumObjects = P.objects().size();
  const uint64_t Seed = C.Args.Seed;
  const uint64_t Ops = C.LayerOpsPerThread;
  const std::string StreamPath = C.Args.WorkDir + "/layer-stream.log";
  const std::string DrainPath = C.Args.WorkDir + "/layer-drain.log";
  SpanScope Root(&S, "layers");

  //===--- program, hooks, log (closed loop) ------------------------------===//
  LoopResult Bare = medianLoop([&] {
    return runLoop(P, {}, Seed, Ops, S, Root.id(), "program.bare");
  });
  uint64_t HookRecords = 0;
  LoopResult Discard = medianLoop([&] {
    DiscardLog L;
    LoopResult LR = runLoop(P, hooksOver(&L, NumObjects), Seed, Ops, S,
                            Root.id(), "hooks.discard");
    HookRecords = L.appendCount();
    return LR;
  });
  uint64_t LoggedRecords = 0;
  LoopResult Logged = medianLoop([&] {
    BufferedLog::Options BO;
    BO.FilePath = StreamPath;
    BO.RetainRecords = false;
    BufferedLog L(BO);
    LoopResult LR = runLoop(P, hooksOver(&L, NumObjects), Seed, Ops, S,
                            Root.id(), "log.logged");
    L.close();
    LoggedRecords = L.appendCount();
    return LR;
  });
  std::vector<double> AppendNs;
  double AppendShare = 0;
  {
    BufferedLog::Options BO;
    BO.FilePath = C.Args.WorkDir + "/layer-timed.log";
    BO.RetainRecords = false;
    BufferedLog L(BO);
    TimedLog TL(L);
    LoopResult LR = runLoop(P, hooksOver(&TL, NumObjects), Seed, Ops, S,
                            Root.id(), "log.timed");
    TL.close();
    AppendNs = TL.latencies();
    AppendShare = ratio(static_cast<double>(TL.totalNs()),
                        static_cast<double>(LR.ThreadNs));
    std::remove(BO.FilePath.c_str());
  }
  double OpsD = static_cast<double>(Bare.Ops);
  R.add("program.bare_ns_per_op", static_cast<double>(Bare.ThreadNs) / OpsD,
        "ns");
  R.add("hooks.ns_per_record",
        ratio(static_cast<double>(Discard.ThreadNs) -
                  static_cast<double>(Bare.ThreadNs),
              static_cast<double>(HookRecords)),
        "ns");
  R.add("hooks.records_per_op", static_cast<double>(HookRecords) / OpsD,
        "count");
  R.add("log.append_ns_p50", quantile(AppendNs, 0.5), "ns");
  R.add("log.append_ns_p99", quantile(AppendNs, 0.99), "ns");
  R.add("log.append_share", AppendShare, "share");
  R.add("log.logged_overhead_x",
        ratio(static_cast<double>(Logged.WallNs),
              static_cast<double>(Bare.WallNs)),
        "x");
  R.add("log.program_rec_per_s",
        static_cast<double>(LoggedRecords) / seconds(Logged.WallNs), "rec/s");

  //===--- the recorded stream --------------------------------------------===//
  std::vector<Action> Stream = loadPrefix(StreamPath, StreamCap);
  if (Stream.empty()) {
    R.fail("layer suite: the logged stream is unreadable");
    return;
  }
  const double N = static_cast<double>(Stream.size());

  //===--- log drain and append-to-batch ----------------------------------===//
  uint64_t DrainBytes = 0;
  {
    std::vector<std::vector<Action>> Parts(LayerAppThreads);
    for (size_t I = 0; I < Stream.size(); ++I)
      Parts[I * LayerAppThreads / Stream.size()].push_back(Stream[I]);
    BufferedLog::Options BO;
    BO.FilePath = DrainPath;
    BO.RetainRecords = false;
    BufferedLog L(BO);
    SpanScope Drain(&S, "log.drain", Root.id());
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < LayerAppThreads; ++T)
      Threads.emplace_back([&, T] {
        LogWriter &W = L.writer();
        for (Action &A : Parts[T])
          W.append(std::move(A));
      });
    for (std::thread &T : Threads)
      T.join();
    L.close();
    S.end(Drain.id());
    R.add("log.drain_rec_per_s", N / seconds(S.durationNs(Drain.id())),
          "rec/s");
    DrainBytes = L.byteCount();
  }
  {
    // One producer paced at the workload's record rate, one consumer on
    // nextBatch; every 64th record's append-to-delivery time.
    constexpr uint64_t Every = 64;
    const double Rate = C.RecordRate > 0 ? C.RecordRate : 1e6;
    const size_t Count = std::min<size_t>(
        Stream.size(), static_cast<size_t>(Rate * 0.5) + Every);
    std::vector<uint64_t> Stamp(Count / Every + 1, 0);
    std::vector<double> LatUs;
    BufferedLog L;
    SpanScope Batch(&S, "log.append_to_batch", Root.id());
    std::thread Consumer([&] {
      std::vector<Action> Out;
      while (L.nextBatch(Out, RouteBatch)) {
        uint64_t Now = nowNs();
        for (const Action &A : Out)
          if (A.Seq % Every == 0 && A.Seq / Every < Stamp.size())
            LatUs.push_back(static_cast<double>(Now - Stamp[A.Seq / Every]) /
                            1e3);
      }
    });
    LogWriter &W = L.writer();
    const uint64_t T0 = nowNs();
    const double Period = 1e9 / Rate;
    for (size_t I = 0; I < Count; ++I) {
      waitUntil(T0 + static_cast<uint64_t>(Period * static_cast<double>(I)));
      Action A = Stream[I];
      if (I % Every == 0)
        Stamp[I / Every] = nowNs();
      W.append(std::move(A));
    }
    L.close();
    Consumer.join();
    R.add("log.append_to_batch_us_p50", median(LatUs), "us");
  }
  R.add("log.bytes_per_record", static_cast<double>(DrainBytes) / N, "B");

  //===--- serialize ------------------------------------------------------===//
  {
    ActionEncoder E;
    ByteWriter W;
    SpanScope Enc(&S, "serialize.encode", Root.id());
    for (const Action &A : Stream) {
      E.encode(A, W);
      if (W.size() > (1u << 20))
        W.clear();
    }
    S.end(Enc.id());
    R.add("serialize.encode_ns_per_record",
          static_cast<double>(S.durationNs(Enc.id())) / N, "ns");
  }
  {
    LogFileReader Rd(DrainPath);
    uint64_t Decoded = 0;
    SpanScope Dec(&S, "serialize.decode", Root.id());
    Action A;
    while (Rd.next(A))
      ++Decoded;
    S.end(Dec.id());
    if (Decoded != Stream.size())
      R.fail("layer suite: decoded " + std::to_string(Decoded) +
             " records of " + std::to_string(Stream.size()));
    R.add("serialize.decode_ns_per_record",
          ratio(static_cast<double>(S.durationNs(Dec.id())),
                static_cast<double>(Decoded)),
          "ns");
  }
  std::remove(DrainPath.c_str());

  //===--- checker (per object) -------------------------------------------===//
  PipelineFactory F = P.pipeline();
  std::vector<std::vector<Action>> PerObject(NumObjects);
  for (const Action &A : Stream)
    if (A.Obj < NumObjects)
      PerObject[A.Obj].push_back(A);
  uint64_t FeedNsTotal = 0;
  double BusiestNs = 0, BusiestPerRec = 0;
  size_t MaxObjRecords = 0;
  for (ObjectId Id = 0; Id < NumObjects; ++Id) {
    std::string Name;
    std::unique_ptr<Spec> Sp;
    std::unique_ptr<Replayer> Rp;
    if (!buildPipeline(F, Id, Name, Sp, Rp))
      continue;
    RefinementChecker Chk(*Sp, Rp.get(), viewChecker());
    SpanScope Feed(&S, "checker.feed." + Name, Root.id());
    for (const Action &A : PerObject[Id])
      Chk.feed(A);
    Chk.finish();
    S.end(Feed.id());
    if (Chk.hasViolation())
      R.fail("layer suite: clean stream violates object '" + Name + "'");
    double Ns = static_cast<double>(S.durationNs(Feed.id()));
    FeedNsTotal += S.durationNs(Feed.id());
    MaxObjRecords = std::max(MaxObjRecords, PerObject[Id].size());
    std::fprintf(stderr, "layers: checker %-10s %8zu records %8.1f ns/rec\n",
                 Name.c_str(), PerObject[Id].size(),
                 ratio(Ns, static_cast<double>(PerObject[Id].size())));
    if (Ns > BusiestNs) {
      BusiestNs = Ns;
      BusiestPerRec = ratio(Ns, static_cast<double>(PerObject[Id].size()));
    }
  }
  CallTimes CT;
  CheckerStats Timed;
  {
    SpanScope Dec(&S, "checker.decorated", Root.id());
    for (ObjectId Id = 0; Id < NumObjects; ++Id) {
      std::string Name;
      std::unique_ptr<Spec> Sp;
      std::unique_ptr<Replayer> Rp;
      if (!buildPipeline(F, Id, Name, Sp, Rp))
        continue;
      std::unique_ptr<Spec> TS = timeSpec(std::move(Sp), CT);
      std::unique_ptr<Replayer> TR = timeReplayer(std::move(Rp), CT);
      CheckerConfig CC = viewChecker();
      CC.CollectTimings = true;
      RefinementChecker Chk(*TS, TR.get(), CC);
      for (const Action &A : PerObject[Id])
        Chk.feed(A);
      Chk.finish();
      Timed.merge(Chk.stats());
    }
  }
  PerObject.clear();

  //===--- checker_service ------------------------------------------------===//
  auto RunService = [&](unsigned Workers, uint64_t &RouteNs) {
    CheckerService Svc(CheckerServiceOptions{});
    for (ObjectId Id = 0; Id < NumObjects; ++Id) {
      std::string Name;
      std::unique_ptr<Spec> Sp;
      std::unique_ptr<Replayer> Rp;
      if (buildPipeline(F, Id, Name, Sp, Rp))
        Svc.addObject(Name, std::move(Sp), std::move(Rp), viewChecker());
    }
    if (Workers > 1)
      Svc.startPool(Workers);
    std::vector<std::vector<Action>> Batches;
    for (size_t I = 0; I < Stream.size(); I += RouteBatch)
      Batches.emplace_back(Stream.begin() + I,
                           Stream.begin() +
                               std::min(Stream.size(), I + RouteBatch));
    SpanScope Run(&S, Workers > 1 ? "checker_service.pool"
                                  : "checker_service.inline",
                  Root.id());
    for (std::vector<Action> &B : Batches) {
      uint64_t T0 = nowNs();
      Svc.routeRange(B, 0, B.size(), nullptr);
      RouteNs += nowNs() - T0;
    }
    Svc.finishChecking();
    S.end(Run.id());
    VerifierReport Rep;
    Svc.buildReport(Rep);
    if (!Rep.ok())
      R.fail("layer suite: checker service reported violations");
    return S.durationNs(Run.id());
  };
  uint64_t InlineRoute = 0, PoolRoute = 0;
  uint64_t InlineNs = RunService(1, InlineRoute);
  uint64_t PoolNs = RunService(PoolWorkers, PoolRoute);
  R.add("checker_service.inline_rec_per_s", N / seconds(InlineNs), "rec/s");
  R.add("checker_service.pool_rec_per_s", N / seconds(PoolNs), "rec/s");
  R.add("checker_service.demux_ns_per_record",
        static_cast<double>(PoolRoute) / N, "ns");
  R.add("pool.efficiency",
        ratio(static_cast<double>(FeedNsTotal),
              PoolWorkers * static_cast<double>(PoolNs)),
        "share");
  R.add("pool.skew_ceiling_x", ratio(N, static_cast<double>(MaxObjRecords)),
        "x");

  R.add("checker.feed_ns_per_record", static_cast<double>(FeedNsTotal) / N,
        "ns");
  R.add("checker.feed_ns_per_record.busiest", BusiestPerRec, "ns");
  R.add("spec.mutator_ns",
        ratio(static_cast<double>(CT.MutatorNs),
              static_cast<double>(CT.MutatorCalls)),
        "ns");
  R.add("spec.observer_ns",
        ratio(static_cast<double>(CT.ObserverNs),
              static_cast<double>(CT.ObserverCalls)),
        "ns");
  R.add("spec.calls_per_record",
        static_cast<double>(CT.MutatorCalls + CT.ObserverCalls) / N, "count");
  R.add("replayer.update_ns",
        ratio(static_cast<double>(CT.UpdateNs),
              static_cast<double>(CT.UpdateCalls)),
        "ns");
  R.add("checker.view_compare_ns_per_commit",
        ratio(static_cast<double>(Timed.ViewCompareNanos),
              static_cast<double>(Timed.CommitsProcessed)),
        "ns");
  R.add("checker.obs_memo_hit_ratio",
        ratio(static_cast<double>(Timed.ObsMemoHits),
              static_cast<double>(Timed.ObsMemoHits + Timed.ObsMemoMisses)),
        "share");
  R.add("checker.max_queue_depth", static_cast<double>(Timed.MaxQueueDepth),
        "count");
  Stream.clear();
  Stream.shrink_to_fit();
  std::remove(StreamPath.c_str());

  //===--- epoch and snapshot ---------------------------------------------===//
  const std::string Base = C.Args.WorkDir + "/layer-chain.log";
  {
    SpanScope Rec(&S, "epoch.record_chain", Root.id());
    harness::ScenarioOptions SO;
    SO.Mode = harness::RunMode::RM_OnlineView;
    SO.LogPath = Base;
    SO.Backpressure.SegmentBytes = ChainSegmentBytes;
    SO.Backpressure.ReclaimSegments = false;
    SO.Snapshots = true;
    harness::Scenario Sc = P.scenario(SO);
    harness::WorkloadOptions WO;
    WO.Threads = LayerAppThreads;
    WO.OpsPerThread = static_cast<unsigned>(C.EpochOpsPerThread);
    WO.Seed = Seed;
    WO.BackgroundOp = Sc.BackgroundOp;
    harness::runWorkload(WO, Sc.Op);
    if (!Sc.Finish().ok())
      R.fail("layer suite: clean chain recording reported violations");
  }
  EpochCheckOptions Zero;
  Zero.Threads = 1;
  Zero.UseSnapshots = false;
  EpochCheckOptions Par;
  Par.Threads = EpochThreads;
  EpochReport ZeroRep, ParRep;
  uint64_t ZeroNs, ParNs;
  {
    SpanScope Z(&S, "epoch.from_zero", Root.id());
    ZeroRep = epochCheck(Base, NumObjects, F, Zero);
    S.end(Z.id());
    ZeroNs = S.durationNs(Z.id());
  }
  {
    SpanScope Pz(&S, "epoch.parallel", Root.id());
    ParRep = epochCheck(Base, NumObjects, F, Par);
    S.end(Pz.id());
    ParNs = S.durationNs(Pz.id());
  }
  if (!ZeroRep.ok() || !ParRep.ok())
    R.fail("layer suite: epoch check of a clean chain failed: " +
           ZeroRep.Error + ParRep.Error);
  std::vector<double> RestoreMs;
  {
    SpanScope Rs(&S, "snapshot.restore", Root.id());
    std::vector<ChainSegment> Segs;
    enumerateChain(Base, Segs);
    for (const ChainSegment &Seg : Segs) {
      if (!Seg.HasSnapshot)
        continue;
      uint64_t Ns = 0;
      for (const SnapshotObject &SO : Seg.Snap.Objects) {
        std::string Name;
        std::unique_ptr<Spec> Sp;
        std::unique_ptr<Replayer> Rp;
        if (!buildPipeline(F, SO.Id, Name, Sp, Rp))
          continue;
        RefinementChecker Chk(*Sp, Rp.get(), viewChecker());
        ByteReader Rd(SO.Blob.data(), SO.Blob.size());
        uint64_t T0 = nowNs();
        bool Ok = Chk.restoreState(Rd);
        Ns += nowNs() - T0;
        if (!Ok)
          R.fail("layer suite: a sidecar blob does not restore");
      }
      RestoreMs.push_back(static_cast<double>(Ns) / 1e6);
    }
  }
  removeChain(Base);
  R.add("epoch.from_zero_rec_per_s",
        static_cast<double>(ZeroRep.Report.LogRecords) / seconds(ZeroNs),
        "rec/s");
  R.add("epoch.speedup_x",
        ratio(static_cast<double>(ZeroNs), static_cast<double>(ParNs)), "x");
  R.add("epoch.epochs", static_cast<double>(ParRep.Epochs), "count");
  R.add("epoch.serial_rechecks", static_cast<double>(ParRep.SerialRechecks),
        "count");
  R.add("snapshot.restore_ms", median(RestoreMs), "ms");
}

} // namespace perfbench
