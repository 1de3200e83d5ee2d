//===- programs.cpp - Programs, probe, bench logs and decorators ----------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "programs.h"

#include "blinktree/BLinkTree.h"
#include "cache/BoxCache.h"
#include "chunk/ChunkManager.h"
#include "multiset/ArrayMultiset.h"
#include "queue/BoundedQueue.h"
#include "vyrd/BufferedLog.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

using namespace vyrd;
using namespace vyrd::harness;

namespace perfbench {

//===----------------------------------------------------------------------===//
// perfbench.h helpers
//===----------------------------------------------------------------------===//

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

uint64_t sleepUntil(uint64_t DueNs) {
  // std::chrono::steady_clock is CLOCK_MONOTONIC, the clock nowNs() reads.
  timespec Due{static_cast<time_t>(DueNs / 1000000000ULL),
               static_cast<long>(DueNs % 1000000000ULL)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &Due, nullptr) ==
         EINTR)
    ;
  return nowNs();
}

void tightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

namespace {
std::mutex PollerClocksM;
std::vector<clockid_t> PollerClocks;
} // namespace

uint64_t processCpuNs() {
  uint64_t Ns = clockNs(CLOCK_PROCESS_CPUTIME_ID);
  std::lock_guard<std::mutex> G(PollerClocksM);
  for (clockid_t C : PollerClocks)
    Ns -= std::min(Ns, clockNs(C));
  return Ns;
}

IdlePollers::IdlePollers(unsigned N) {
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([this] {
      sched_param Param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &Param);
      while (!Stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  std::lock_guard<std::mutex> G(PollerClocksM);
  for (std::thread &T : Threads) {
    clockid_t C;
    if (pthread_getcpuclockid(T.native_handle(), &C) == 0)
      PollerClocks.push_back(C);
  }
}

IdlePollers::~IdlePollers() {
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    T.join();
  // A joined thread's clock is gone; differences of processCpuNs() are
  // only meaningful while the pollers live, which main() ensures.
  std::lock_guard<std::mutex> G(PollerClocksM);
  PollerClocks.clear();
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

namespace {

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string RunResult::json() const {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Metrics[I].Name + "\": {\"value\": " +
           jsonNumber(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
           "\"}";
  }
  return Out + "}}";
}

int Spans::begin(std::string Name, int Parent) {
  return add(std::move(Name), nowNs(), 0, Parent);
}

void Spans::end(int Id) {
  uint64_t T = nowNs();
  std::lock_guard<std::mutex> G(M);
  All[static_cast<size_t>(Id)].EndNs = T;
}

int Spans::add(std::string Name, uint64_t StartNs, uint64_t EndNs,
               int Parent) {
  std::lock_guard<std::mutex> G(M);
  All.push_back({std::move(Name), StartNs, EndNs, Parent});
  return static_cast<int>(All.size() - 1);
}

uint64_t Spans::durationNs(int Id) const {
  std::lock_guard<std::mutex> G(M);
  const Span &S = All[static_cast<size_t>(Id)];
  return S.EndNs > S.StartNs ? S.EndNs - S.StartNs : 0;
}

bool Spans::write(const std::string &Path) const {
  std::lock_guard<std::mutex> G(M);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "[\n";
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    Out << "  {\"id\": " << I << ", \"name\": \"" << S.Name
        << "\", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
        << ", \"parent\": " << S.Parent << "}"
        << (I + 1 < All.size() ? ",\n" : "\n");
  }
  Out << "]\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

ProgramInstance::~ProgramInstance() = default;
Program::~Program() = default;

namespace {

/// Key pool shape of the harness workloads (Workload.h defaults).
constexpr size_t KeyPoolSize = 64;
constexpr int64_t KeyRange = 1 << 20;
constexpr double FinalPoolFraction = 0.25;

/// The per-thread RNG seeding runWorkload uses.
Rng threadRng(uint64_t Seed, unsigned Thread) {
  return Rng(Seed * 1000003ULL + Thread * 7919ULL + 1);
}

} // namespace

HtOpStream::HtOpStream(uint64_t Seed, unsigned Thread, uint64_t TotalOps)
    : Pool(KeyPoolSize, KeyRange, FinalPoolFraction, Seed),
      R(threadRng(Seed, Thread)), Total(TotalOps ? TotalOps : 1) {}

HtOp HtOpStream::next() {
  double Progress = static_cast<double>(Issued++) / static_cast<double>(Total);
  HtOp Op;
  Op.Key = Pool.pick(R, Progress);
  Op.Val = Pool.pick(R, Progress) % 1000;
  unsigned Dice = static_cast<unsigned>(R.range(100));
  Op.Kind = Dice < 25 ? 0 : Dice < 50 ? 1 : Dice < 65 ? 2 : Dice < 90 ? 3 : 4;
  return Op;
}

void applyHtOp(javalib::SyncHashtable &T, const HtOp &Op) {
  switch (Op.Kind) {
  case 0:
    T.put(Op.Key, Op.Val);
    break;
  case 1:
    T.putIfAbsent(Op.Key, Op.Val);
    break;
  case 2:
    T.remove(Op.Key);
    break;
  case 3:
    T.get(Op.Key);
    break;
  default:
    T.size();
    break;
  }
}

namespace {

class HashtableInstance final : public ProgramInstance {
public:
  explicit HashtableInstance(Hooks H)
      : T(javalib::SyncHashtable::Options(), H) {}
  void runOps(unsigned Thread, uint64_t Seed, uint64_t Ops) override {
    HtOpStream S(Seed, Thread, Ops);
    for (uint64_t I = 0; I < Ops; ++I)
      applyHtOp(T, S.next());
  }

private:
  javalib::SyncHashtable T;
};

class HashtableProgram final : public Program {
public:
  std::vector<std::string> objects() const override { return {"hashtable"}; }
  PipelineFactory pipeline() const override {
    PipelineFactory F =
        makeProgramPipeline(harness::Program::P_Hashtable, true);
    return [F](ObjectId Id, std::string &Name, std::unique_ptr<Spec> &S,
               std::unique_ptr<Replayer> &R) {
      bool Ok = F(Id, Name, S, R);
      Name = "hashtable";
      return Ok;
    };
  }
  std::unique_ptr<ProgramInstance>
  instantiate(const std::vector<Hooks> &H) const override {
    return std::make_unique<HashtableInstance>(H.empty() ? Hooks() : H[0]);
  }
  Scenario scenario(const ScenarioOptions &O) const override {
    ScenarioOptions SO = O;
    SO.Prog = harness::Program::P_Hashtable;
    return makeScenario(SO);
  }
};

/// Short deterministic payload bytes derived from a key (the composite
/// scenario's payload shape).
chunk::Bytes keyBytes(int64_t K, size_t Len) {
  chunk::Bytes B(Len);
  uint64_t X = static_cast<uint64_t>(K) * 0x9e3779b97f4a7c15ULL + 0x1234;
  for (size_t I = 0; I < Len; ++I) {
    X ^= X >> 13;
    X *= 0xff51afd7ed558ccdULL;
    B[I] = static_cast<uint8_t>(X >> 32);
  }
  return B;
}

/// The composite scenario's four structures and operation mix
/// (harness/Scenarios.cpp, makeCompositeScenario), over caller hooks.
class CompositeInstance final : public ProgramInstance {
public:
  explicit CompositeInstance(const std::vector<Hooks> &H)
      : Handles(allocateHandles(CacheCM)), M(multisetOptions(), hook(H, 0)),
        C(CacheCM, cacheOptions(), hook(H, 1)),
        TreeCache(TreeCM, treeCacheOptions(), Hooks()),
        T(TreeCache, TreeCM, treeOptions(), hook(H, 2)),
        Q(queueOptions(), hook(H, 3)) {}

  void runOps(unsigned Thread, uint64_t Seed, uint64_t Ops) override {
    KeyPool Pool(KeyPoolSize, KeyRange, FinalPoolFraction, Seed);
    Rng R = threadRng(Seed, Thread);
    for (uint64_t I = 0; I < Ops; ++I) {
      double Progress = static_cast<double>(I) / static_cast<double>(Ops);
      int64_t K1 = Pool.pick(R, Progress);
      int64_t K2 = Pool.pick(R, Progress);
      op(R, K1, K2);
    }
  }

private:
  /// The 24 cache handles, allocated before the cache exists so they are
  /// 1..24, the handles the cache spec and replayer are built over.
  static std::vector<uint64_t> allocateHandles(chunk::ChunkManager &CM) {
    std::vector<uint64_t> Out;
    for (size_t I = 0; I < 24; ++I)
      Out.push_back(CM.allocate());
    return Out;
  }
  static Hooks hook(const std::vector<Hooks> &H, size_t I) {
    return I < H.size() ? H[I] : Hooks();
  }
  static multiset::ArrayMultiset::Options multisetOptions() {
    multiset::ArrayMultiset::Options O;
    O.Capacity = 48;
    return O;
  }
  static cache::BoxCache::Options cacheOptions() {
    cache::BoxCache::Options O;
    O.ChunkSize = 64;
    return O;
  }
  static cache::BoxCache::Options treeCacheOptions() {
    cache::BoxCache::Options O;
    O.ChunkSize = 512;
    return O;
  }
  static blinktree::BLinkTree::Options treeOptions() {
    blinktree::BLinkTree::Options O;
    O.MaxLeafKeys = 8;
    O.MaxInnerKeys = 8;
    return O;
  }
  static queue::BoundedQueue::Options queueOptions() {
    queue::BoundedQueue::Options O;
    O.Capacity = 24;
    return O;
  }

  void op(Rng &R, int64_t K1, int64_t K2) {
    unsigned Dice;
    switch (R.range(4)) {
    case 0:
      Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 30)
        M.insert(K1);
      else if (Dice < 50)
        M.insertPair(K1, K2);
      else if (Dice < 75)
        M.remove(K1);
      else
        M.lookUp(K1);
      break;
    case 1: {
      uint64_t Hd = Handles[static_cast<size_t>(K1) % Handles.size()];
      Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 50) {
        C.write(Hd, keyBytes(K2, 16 + K2 % 16));
      } else if (Dice < 80) {
        chunk::Bytes Out;
        C.read(Hd, Out);
      } else if (Dice < 90) {
        C.flush();
      } else {
        C.evict();
      }
      break;
    }
    case 2:
      Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 40)
        T.insert(K1, keyBytes(K1, 8 + K1 % 9));
      else if (Dice < 65)
        T.remove(K1);
      else
        T.lookup(K1);
      break;
    default:
      Dice = static_cast<unsigned>(R.range(100));
      if (Dice < 40)
        Q.offer(K1 % 1000);
      else if (Dice < 75)
        Q.poll();
      else
        Q.peek();
      break;
    }
  }

  // Declaration order matters: the chunk managers outlive the caches and
  // the tree built over them, and the handles precede the cache.
  chunk::ChunkManager CacheCM;
  chunk::ChunkManager TreeCM;
  std::vector<uint64_t> Handles;
  multiset::ArrayMultiset M;
  cache::BoxCache C;
  cache::BoxCache TreeCache;
  blinktree::BLinkTree T;
  queue::BoundedQueue Q;
};

class CompositeProgram final : public Program {
public:
  std::vector<std::string> objects() const override {
    return {"multiset", "cache", "blinktree", "queue"};
  }
  PipelineFactory pipeline() const override {
    return makeCompositePipeline(true);
  }
  std::unique_ptr<ProgramInstance>
  instantiate(const std::vector<Hooks> &H) const override {
    return std::make_unique<CompositeInstance>(H);
  }
  Scenario scenario(const ScenarioOptions &O) const override {
    return makeCompositeScenario(O);
  }
};

} // namespace

std::unique_ptr<Program> makeHashtableProgram() {
  return std::make_unique<HashtableProgram>();
}
std::unique_ptr<Program> makeCompositeProgram() {
  return std::make_unique<CompositeProgram>();
}

//===----------------------------------------------------------------------===//
// Bench logs
//===----------------------------------------------------------------------===//

uint64_t DiscardLog::append(Action A) {
  (void)A;
  return Count.fetch_add(1, std::memory_order_relaxed);
}

class TimedLog::Writer final : public LogWriter {
public:
  explicit Writer(LogWriter &In) : In(In) { Ns.reserve(1 << 16); }
  uint64_t append(Action A) override {
    uint64_t T0 = nowNs();
    uint64_t Seq = In.append(std::move(A));
    uint64_t D = nowNs() - T0;
    Ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(D, UINT32_MAX)));
    Sum += D;
    return Seq;
  }

  LogWriter &In;
  std::vector<uint32_t> Ns;
  uint64_t Sum = 0;
};

namespace {
std::atomic<uint64_t> NextTimedLogId{1};
struct WriterCache {
  uint64_t Owner = 0;
  LogWriter *W = nullptr;
};
thread_local WriterCache TimedWriterCache;
} // namespace

TimedLog::TimedLog(Log &Inner)
    : Inner(Inner), Id(NextTimedLogId.fetch_add(1)) {}
TimedLog::~TimedLog() = default;

uint64_t TimedLog::append(Action A) { return writer().append(std::move(A)); }

LogWriter &TimedLog::writer() {
  WriterCache &C = TimedWriterCache;
  if (C.Owner != Id) {
    // First append of this thread: bind to the inner log's writer for
    // the calling thread (a BufferedLog registers its shard here).
    auto W = std::make_unique<Writer>(Inner.writer());
    std::lock_guard<std::mutex> G(M);
    C.Owner = Id;
    C.W = W.get();
    Writers.push_back(std::move(W));
  }
  return *C.W;
}

std::vector<double> TimedLog::latencies() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<double> Out;
  for (const auto &W : Writers)
    Out.insert(Out.end(), W->Ns.begin(), W->Ns.end());
  return Out;
}

uint64_t TimedLog::totalNs() const {
  std::lock_guard<std::mutex> G(M);
  uint64_t S = 0;
  for (const auto &W : Writers)
    S += W->Sum;
  return S;
}

//===----------------------------------------------------------------------===//
// Probe
//===----------------------------------------------------------------------===//

namespace {

Name probeMethod() {
  static const Name N = internName("BenchProbe");
  return N;
}

/// Every probe is a mutator with exactly one transition; applying it
/// stamps the probe's checked time.
class ProbeSpec final : public Spec {
public:
  explicit ProbeSpec(std::shared_ptr<ProbeBoard> B) : Board(std::move(B)) {}
  bool isObserver(Name) const override { return false; }
  bool applyMutator(Name, const ValueList &Args, const Value &,
                    View &) override {
    if (Args.size() != 1 || !Args[0].isInt())
      return false;
    size_t Id = static_cast<size_t>(Args[0].asInt());
    if (Id >= Board->CheckedNs.size())
      return false;
    Board->CheckedNs[Id].store(nowNs(), std::memory_order_relaxed);
    return true;
  }
  bool returnAllowed(Name, const ValueList &, const Value &) const override {
    return true;
  }
  void buildView(View &Out) const override { Out.clear(); }

private:
  std::shared_ptr<ProbeBoard> Board;
};

} // namespace

std::vector<double> ProbeBoard::lagsUs(size_t Issued,
                                       uint64_t &Missing) const {
  std::vector<double> Out;
  Missing = 0;
  Issued = std::min(Issued, DueNs.size());
  Out.reserve(Issued);
  for (size_t I = 0; I < Issued; ++I) {
    uint64_t C = CheckedNs[I].load(std::memory_order_relaxed);
    if (!C) {
      ++Missing;
      continue;
    }
    Out.push_back(C > DueNs[I] ? static_cast<double>(C - DueNs[I]) / 1e3 : 0);
  }
  return Out;
}

void emitProbe(const Hooks &H, uint64_t Id) {
  Name N = probeMethod();
  H.call(N, {Value(static_cast<int64_t>(Id))});
  H.commit();
  H.ret(N, Value());
}

std::unique_ptr<Verifier> makeOnlineVerifier(const Program &P,
                                             unsigned CheckerThreads,
                                             size_t MaxPending,
                                             std::shared_ptr<ProbeBoard> Board,
                                             Hooks &ProbeHooks) {
  VerifierConfig VC;
  VC.Checker.Mode = CheckMode::CM_ViewRefinement;
  VC.Online = true;
  VC.Backend = LogBackend::LB_Buffered;
  VC.Backpressure.Enabled = true;
  VC.Backpressure.Policy = BackpressurePolicy::BP_Block;
  VC.Backpressure.MaxPendingRecords = MaxPending;
  VC.CheckerThreads = CheckerThreads;
  auto V = std::make_unique<Verifier>(VC);
  PipelineFactory F = P.pipeline();
  const size_t Objects = P.objects().size();
  for (ObjectId Id = 0; Id < Objects; ++Id) {
    std::string Name;
    std::unique_ptr<Spec> S;
    std::unique_ptr<Replayer> R;
    F(Id, Name, S, R);
    V->registerObject(Name, std::move(S), std::move(R));
  }
  CheckerConfig IO = VC.Checker;
  IO.Mode = CheckMode::CM_IORefinement;
  ProbeHooks = V->registerObject(
      "probe", std::make_unique<ProbeSpec>(std::move(Board)), nullptr, IO);
  V->start();
  return V;
}

//===----------------------------------------------------------------------===//
// Decorators
//===----------------------------------------------------------------------===//

namespace {

class TimingSpec final : public Spec {
public:
  TimingSpec(std::unique_ptr<Spec> In, CallTimes &T)
      : In(std::move(In)), T(T) {}
  bool saveState(ByteWriter &W) const override { return In->saveState(W); }
  bool loadState(ByteReader &R) override { return In->loadState(R); }
  bool isObserver(Name M) const override { return In->isObserver(M); }
  bool applyMutator(Name M, const ValueList &Args, const Value &Ret,
                    View &ViewS) override {
    uint64_t T0 = nowNs();
    bool Ok = In->applyMutator(M, Args, Ret, ViewS);
    T.MutatorNs += nowNs() - T0;
    ++T.MutatorCalls;
    return Ok;
  }
  bool returnAllowed(Name M, const ValueList &Args,
                     const Value &Ret) const override {
    uint64_t T0 = nowNs();
    bool Ok = In->returnAllowed(M, Args, Ret);
    T.ObserverNs += nowNs() - T0;
    ++T.ObserverCalls;
    return Ok;
  }
  void buildView(View &Out) const override { In->buildView(Out); }

private:
  std::unique_ptr<Spec> In;
  CallTimes &T;
};

class TimingReplayer final : public Replayer {
public:
  TimingReplayer(std::unique_ptr<Replayer> In, CallTimes &T)
      : In(std::move(In)), T(T) {}
  bool saveState(ByteWriter &W) const override { return In->saveState(W); }
  bool loadState(ByteReader &R) override { return In->loadState(R); }
  void applyUpdate(const Action &A, View &ViewI) override {
    uint64_t T0 = nowNs();
    In->applyUpdate(A, ViewI);
    T.UpdateNs += nowNs() - T0;
    ++T.UpdateCalls;
  }
  void buildView(View &Out) const override { In->buildView(Out); }
  bool checkInvariants(std::string &Message) const override {
    return In->checkInvariants(Message);
  }

private:
  std::unique_ptr<Replayer> In;
  CallTimes &T;
};

} // namespace

std::unique_ptr<Spec> timeSpec(std::unique_ptr<Spec> In, CallTimes &T) {
  return std::make_unique<TimingSpec>(std::move(In), T);
}

std::unique_ptr<Replayer> timeReplayer(std::unique_ptr<Replayer> In,
                                       CallTimes &T) {
  if (!In)
    return nullptr;
  return std::make_unique<TimingReplayer>(std::move(In), T);
}

//===----------------------------------------------------------------------===//
// Streams
//===----------------------------------------------------------------------===//

StreamInfo scanStream(const std::string &Path, size_t Objects) {
  StreamInfo I;
  I.PerObject.assign(Objects, 0);
  LogFileReader Rd(Path);
  if (!Rd.valid())
    return I;
  Action A;
  while (Rd.next(A)) {
    ++I.Records;
    if (A.Kind == ActionKind::AK_Call)
      ++I.Calls;
    if (A.Obj < Objects)
      ++I.PerObject[A.Obj];
  }
  I.Ok = !Rd.malformed() && I.Records > 0;
  return I;
}

uint64_t recordStream(const Program &P, const std::string &Path,
                      unsigned Threads, unsigned OpsPerThread, uint64_t Seed,
                      bool Buggy) {
  ScenarioOptions SO;
  SO.Mode = RunMode::RM_LogOnlyView;
  SO.LogPath = Path;
  SO.Buffered = true;
  SO.Buggy = Buggy;
  Scenario S = P.scenario(SO);
  WorkloadOptions WO;
  WO.Threads = Threads;
  WO.OpsPerThread = OpsPerThread;
  WO.Seed = Seed;
  WO.BackgroundOp = S.BackgroundOp;
  WorkloadResult R = runWorkload(WO, S.Op);
  S.Finish();
  return R.OpsIssued;
}

} // namespace perfbench
