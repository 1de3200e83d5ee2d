//===- bench_log_backends.cpp - Append throughput of the sharded log ------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's Table 2 measures how much the log slows down the
// *instrumented program*: appends execute inside the application's
// methods, while draining, serialization and checking can run elsewhere.
// BufferedLog pays a ticket fetch_add and one move into a private ring
// per append.
//
// This bench therefore reports two numbers per configuration at 1/2/4/8
// producer threads:
//
//  * app-side append throughput: total records divided by the CPU time
//    the producer threads themselves consumed (CLOCK_THREAD_CPUTIME_ID
//    around the append loop). This is the cost instrumentation adds to
//    the program, independent of how many cores the host has.
//  * end-to-end throughput: total records over the wall time until the
//    log is closed and fully drained. On a single-core host this sums
//    every pipeline stage, so work shifted off the app threads cannot
//    win here; on a multi-core host the stages overlap.
//
// The in-memory configuration drains concurrently in 256-record batches
// (the online verifier's consumption pattern); the file configuration
// writes records to disk with no consumer (the Table 2 logging-overhead
// pattern, RetainRecords off). Records are an alloc-free
// call/write/commit/return mix so the allocator doesn't dilute the
// comparison. Results are recorded in EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "vyrd/Auto.h"
#include "vyrd/BufferedLog.h"
#include "vyrd/Monitor.h"
#include "vyrd/Serialize.h"
#include "vyrd/Telemetry.h"
#include "vyrd/Transport.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace vyrd;
using namespace vyrd::bench;

namespace {

unsigned MethodsPerThread = 20000; // 4 records per method
unsigned Reps = 3;

/// CPU seconds consumed by the calling thread alone.
double threadCpuSeconds() {
  timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return double(TS.tv_sec) + double(TS.tv_nsec) * 1e-9;
}

/// Appends one method's worth of records (call, write, commit, return)
/// through the thread's writer handle, the way Hooks does. No heap
/// allocations: the call carries no arguments and the values are scalars.
void appendMethod(LogWriter &W, Name M, Name Var, int64_t K) {
  W.append(Action::call(0, M, {}));
  W.append(Action::write(0, Var, Value(K)));
  W.append(Action::commit(0));
  W.append(Action::ret(0, M, Value(true)));
}

struct RunCost {
  double ProducerCpu; // summed over producer threads, append loop only
  double Wall;        // producers started -> log closed and drained
};

/// Runs \p Threads producers against \p L, optionally draining from a
/// consumer thread.
RunCost runProducers(Log &L, unsigned Threads, bool Drain) {
  Name M = internName("bench.op");
  Name Var = internName("bench.var");
  std::atomic<uint64_t> CpuNanos{0};
  double T0 = wallSeconds();
  std::thread Consumer;
  if (Drain)
    Consumer = std::thread([&L] {
      std::vector<Action> Batch;
      while (L.nextBatch(Batch, 256))
        ;
    });
  std::vector<std::thread> Producers;
  for (unsigned T = 0; T < Threads; ++T)
    Producers.emplace_back([&L, &CpuNanos, M, Var] {
      LogWriter &W = L.writer();
      double C0 = threadCpuSeconds();
      for (unsigned I = 0; I < MethodsPerThread; ++I)
        appendMethod(W, M, Var, static_cast<int64_t>(I));
      CpuNanos.fetch_add(
          static_cast<uint64_t>((threadCpuSeconds() - C0) * 1e9));
    });
  for (auto &P : Producers)
    P.join();
  L.close();
  if (Drain)
    Consumer.join();
  return {double(CpuNanos.load()) * 1e-9, wallSeconds() - T0};
}

struct Throughput {
  double App; // M records per producer-CPU-second (best of Reps)
  double E2E; // M records per wall second (best of Reps)
};

Throughput measure(const std::function<std::unique_ptr<Log>()> &Make,
                   unsigned Threads, bool Drain) {
  Throughput Best{0, 0};
  double Total = static_cast<double>(Threads) * MethodsPerThread * 4;
  for (unsigned R = 0; R < Reps; ++R) {
    auto L = Make();
    RunCost C = runProducers(*L, Threads, Drain);
    Best.App = std::max(Best.App, Total / C.ProducerCpu / 1e6);
    Best.E2E = std::max(Best.E2E, Total / C.Wall / 1e6);
  }
  return Best;
}

std::string tmpFile(const char *Tag) {
  return "/tmp/vyrd-benchlog-" + std::string(Tag) + "-" +
         std::to_string(getpid()) + ".bin";
}

void printHeader() {
  std::printf("%-8s %13s %11s\n", "threads", "app M/s", "e2e M/s");
  hr();
}

void printRow(unsigned Threads, Throughput T) {
  std::printf("%-8u %13.2f %11.2f\n", Threads, T.App, T.E2E);
}

/// App-side nanoseconds per record from a throughput in M records/s.
double nsPerOp(Throughput T) { return T.App > 0 ? 1000.0 / T.App : 0; }

void jsonRow(BenchJson &BJ, const char *Config, unsigned Threads,
             Throughput T) {
  char Extra[64];
  std::snprintf(Extra, sizeof(Extra), "{\"e2e_per_s\":%.1f}", T.E2E * 1e6);
  BJ.row(Config, Threads, nsPerOp(T), T.App * 1e6, Extra);
}

//===----------------------------------------------------------------------===//
// Auto-instrumentation overhead: the same locked counter instrumented by
// hand (MethodScope / CommitBlock / explicit write) and through the auto
// layer (Instrumented<T> dispatch + Mutex shim + Tracked field). Both
// emit the identical six-record stream per method — call, blockBegin,
// write, commit, blockEnd, return — so the delta is pure dispatch and
// shim cost. Acceptance: auto within 15% of hand app-side (EXPERIMENTS.md).
//===----------------------------------------------------------------------===//

/// Hand twin: the pre-auto instrumentation style of the workloads.
class HandBenchCounter {
public:
  explicit HandBenchCounter(Hooks H)
      : H(H), Method(internName("bench.add")), Var(internName("bench.ctr")) {}

  void add(int64_t D) {
    MethodScope Scope(H, Method, {Value(D)});
    std::lock_guard Lock(M);
    CommitBlock Block(H);
    V += D;
    H.write(Var, Value(V));
    H.commit();
  }

private:
  Hooks H;
  Name Method, Var;
  std::mutex M;
  int64_t V = 0;
};

/// Auto twin: no hook call in the body beyond the commit annotation.
class AutoBenchCounterImpl {
public:
  explicit AutoBenchCounterImpl(AutoContext &C)
      : Ctx(C), M(C), V(C, internName("bench.ctr"), 0) {}

  void add(int64_t D) {
    LockGuard Lock(M);
    V = V.get() + D;
    Ctx.commit();
  }

private:
  AutoContext &Ctx;
  Mutex M;
  Tracked<int64_t> V;
};

//===----------------------------------------------------------------------===//
// Segment-shipping overhead: the same file-backed BufferedLog with 256 KiB
// segment rotation, plus a shipper thread streaming every closed segment
// over a unix socket (the SocketTransport wire protocol) to a
// discard-and-ack receiver. Shipping reads *closed* files off the hot
// path, so the app-side append cost must stay within noise of
// buffered-file-nodrain (docs/SHIPPING.md; gated in bench/baseline.json).
//===----------------------------------------------------------------------===//

/// Minimal fleet stand-in: accepts one producer at a time, parses frames,
/// discards segment bytes and acks the Close watermark (segment acks are
/// irrelevant here — the bench never reclaims). Checking cost belongs to
/// the remote fleet's CPU budget, not to this producer-side bench.
class DiscardAckServer {
public:
  explicit DiscardAckServer(const std::string &Path) : Path(Path) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    std::remove(Path.c_str());
    ListenFd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return;
    if (bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        listen(ListenFd, 4) != 0) {
      close(ListenFd);
      ListenFd = -1;
      return;
    }
    Srv = std::thread([this] { serve(); });
  }

  ~DiscardAckServer() {
    Stop.store(true, std::memory_order_release);
    if (ListenFd >= 0)
      shutdown(ListenFd, SHUT_RDWR);
    if (Srv.joinable())
      Srv.join();
    if (ListenFd >= 0)
      close(ListenFd);
    std::remove(Path.c_str());
  }

  bool valid() const { return ListenFd >= 0; }

private:
  void serve() {
    while (!Stop.load(std::memory_order_acquire)) {
      int Fd = accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        return;
      wire::FrameParser Parser;
      char Buf[65536];
      ssize_t N;
      while ((N = read(Fd, Buf, sizeof(Buf))) > 0) {
        Parser.feed(Buf, static_cast<size_t>(N));
        wire::Frame F;
        while (Parser.next(F)) {
          if (F.Type != wire::FT_Close)
            continue;
          ByteReader R(F.Payload.data(), F.Payload.size());
          uint64_t Final = R.varint();
          ByteWriter W;
          W.varint(Final);
          std::string Ack;
          wire::appendFrame(Ack, wire::FT_WatermarkAck, W.buffer().data(),
                            W.size());
          (void)!write(Fd, Ack.data(), Ack.size());
        }
      }
      close(Fd);
    }
  }

  std::string Path;
  int ListenFd = -1;
  std::atomic<bool> Stop{false};
  std::thread Srv;
};

/// Like measure(), but with a shipper thread translating segment cuts
/// into wire transfers while the producers run (the Verifier's shipPump
/// pattern). Wall time includes the final segment's transfer and the
/// Close ack.
Throughput measureShipped(const std::string &Base, const std::string &Sock,
                          unsigned Threads) {
  Throughput Best{0, 0};
  double Total = static_cast<double>(Threads) * MethodsPerThread * 4;
  for (unsigned R = 0; R < Reps; ++R) {
    std::remove(Base.c_str());
    for (uint64_t I = 1; I <= 512; ++I)
      std::remove(logSegmentPath(Base, I).c_str());
    BufferedLog::Options O;
    O.ShardCapacity = 4096;
    O.FilePath = Base;
    O.RetainRecords = false;
    O.SegmentBytes = 256 * 1024;
    O.ReclaimSegments = false;
    BufferedLog L(std::move(O));
    ShipperOptions SO;
    SO.Endpoint = "unix:" + Sock;
    SO.Program = "bench";
    SocketTransport T(SO);
    SegmentShipper Shipper(T, Base, nullptr);
    std::atomic<bool> StopShip{false};
    std::thread Ship([&L, &Shipper, &StopShip] {
      std::vector<SegmentCut> Cuts;
      while (!StopShip.load(std::memory_order_acquire)) {
        L.takeSegmentCuts(Cuts);
        for (const SegmentCut &C : Cuts)
          Shipper.noteCut(C.Index);
        usleep(2000);
      }
    });
    RunCost C = runProducers(L, Threads, /*Drain=*/false);
    double T1 = wallSeconds();
    StopShip.store(true, std::memory_order_release);
    Ship.join();
    std::vector<SegmentCut> Cuts;
    L.takeSegmentCuts(Cuts);
    for (const SegmentCut &Cut : Cuts)
      Shipper.noteCut(Cut.Index);
    if (!Shipper.finish(L.appendCount(), /*TimeoutMs=*/10000))
      std::fprintf(stderr, "shipped bench: final ack missing\n");
    C.Wall += wallSeconds() - T1;
    Best.App = std::max(Best.App, Total / C.ProducerCpu / 1e6);
    Best.E2E = std::max(Best.E2E, Total / C.Wall / 1e6);
    std::remove(Base.c_str());
    for (uint64_t I = 1; I <= 512; ++I)
      std::remove(logSegmentPath(Base, I).c_str());
  }
  return Best;
}

} // namespace

namespace vyrd {
template <> struct AutoMethods<AutoBenchCounterImpl> {
  static constexpr auto desc(MethodTag<&AutoBenchCounterImpl::add>) {
    return method("bench.add");
  }
};
} // namespace vyrd

namespace {

class AutoBenchCounter : public Instrumented<AutoBenchCounterImpl> {
public:
  explicit AutoBenchCounter(Hooks H) : Instrumented(H) {}
  void add(int64_t D) { invoke<&AutoBenchCounterImpl::add>(D); }
};

/// Measures app-side/e2e throughput of \p CounterT into a drained
/// BufferedLog; six records per method at view level.
template <typename CounterT> Throughput measureCounter(unsigned Threads) {
  Throughput Best{0, 0};
  double Total = static_cast<double>(Threads) * MethodsPerThread * 6;
  for (unsigned R = 0; R < Reps; ++R) {
    BufferedLog::Options O;
    O.ShardCapacity = 4096;
    BufferedLog L(std::move(O));
    CounterT C(Hooks(&L, LogLevel::LL_View));
    std::atomic<uint64_t> CpuNanos{0};
    double T0 = wallSeconds();
    std::thread Consumer([&L] {
      std::vector<Action> Batch;
      while (L.nextBatch(Batch, 256))
        ;
    });
    std::vector<std::thread> Producers;
    for (unsigned T = 0; T < Threads; ++T)
      Producers.emplace_back([&C, &CpuNanos] {
        double C0 = threadCpuSeconds();
        for (unsigned I = 0; I < MethodsPerThread; ++I)
          C.add(static_cast<int64_t>(I & 7));
        CpuNanos.fetch_add(
            static_cast<uint64_t>((threadCpuSeconds() - C0) * 1e9));
      });
    for (auto &P : Producers)
      P.join();
    L.close();
    Consumer.join();
    Best.App = std::max(Best.App, Total / (double(CpuNanos.load()) * 1e-9) / 1e6);
    Best.E2E = std::max(Best.E2E, Total / (wallSeconds() - T0) / 1e6);
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  if (Args.Quick) {
    MethodsPerThread = 4000;
    Reps = 1;
  }
  std::vector<unsigned> ThreadCounts =
      Args.Quick ? std::vector<unsigned>{1, 4}
                 : std::vector<unsigned>{1, 2, 4, 8};
  BenchJson BJ("log_backends", Args.JsonPath);

  std::printf("Log append throughput (%u methods x 4 records per "
              "producer, best of %u; asymmetric publish: %s)\n"
              "app = records per CPU-second spent in the producer threads "
              "(instrumentation cost)\ne2e = records per wall second until "
              "the log is closed and drained\n\n",
              MethodsPerThread, Reps,
              BufferedLog::asymmetricPublish() ? "yes" : "no");

  std::printf("In-memory, concurrent consumer draining 256-record "
              "batches:\n\n");
  printHeader();
  for (unsigned Threads : ThreadCounts) {
    Throughput Buf = measure(
        [] {
          BufferedLog::Options O;
          O.ShardCapacity = 4096;
          return std::make_unique<BufferedLog>(std::move(O));
        },
        Threads, /*Drain=*/true);
    printRow(Threads, Buf);
    jsonRow(BJ, "buffered-drain", Threads, Buf);
  }
  hr();

  std::printf("\nFile-backed, no consumer (logging-overhead pattern):\n\n");
  printHeader();
  for (unsigned Threads : ThreadCounts) {
    std::string BufPath = tmpFile("buffered");
    Throughput Buf = measure(
        [&BufPath] {
          BufferedLog::Options O;
          O.ShardCapacity = 4096;
          O.FilePath = BufPath;
          O.RetainRecords = false;
          return std::make_unique<BufferedLog>(std::move(O));
        },
        Threads, /*Drain=*/false);
    std::remove(BufPath.c_str());
    printRow(Threads, Buf);
    jsonRow(BJ, "buffered-file-nodrain", Threads, Buf);
  }
  hr();

  // Shipping overhead: the buffered-file-nodrain configuration plus
  // 256 KiB segment rotation and a shipper streaming closed segments to
  // a local discard-and-ack service. The transfer reads closed files, so
  // the app column must stay within noise of buffered-file-nodrain; the
  // e2e column absorbs the final segment's transfer and Close ack.
  std::printf("\nSegment shipping overhead (buffered file log, 256 KiB "
              "segments, unix-socket fleet stand-in):\n\n");
  printHeader();
  {
    std::string Sock =
        "/tmp/vyrd-benchship-" + std::to_string(getpid()) + ".sock";
    DiscardAckServer Server(Sock);
    if (!Server.valid()) {
      std::fprintf(stderr, "shipped bench: bind failed, skipping\n");
    } else {
      for (unsigned Threads : ThreadCounts) {
        std::string Base = tmpFile("shipped");
        Throughput T = measureShipped(Base, Sock, Threads);
        printRow(Threads, T);
        jsonRow(BJ, "buffered-shipped", Threads, T);
      }
    }
  }
  hr();

  // The acceptance gate for the telemetry layer itself: attaching a hub
  // (per-record counter update + sampled latency clock reads) must cost
  // <= 10% app-side at 4 producer threads; the detached path must stay
  // within noise of a telemetry-free build (EXPERIMENTS.md).
  std::printf("\nTelemetry overhead (BufferedLog, concurrent consumer):\n\n");
  std::printf("%-8s %13s %13s %10s %10s %10s\n", "threads", "off app M/s",
              "on app M/s", "overhead", "parks/1k", "wakes/1k");
  hr();
  Telemetry Telem; // no sampler: measures the pure metric-update cost
  for (unsigned Threads : ThreadCounts) {
    TelemetrySnapshot Before = Telem.snapshot();
    Throughput Off = measure(
        [] {
          BufferedLog::Options O;
          O.ShardCapacity = 4096;
          return std::make_unique<BufferedLog>(std::move(O));
        },
        Threads, /*Drain=*/true);
    Throughput On = measure(
        [&Telem] {
          BufferedLog::Options O;
          O.ShardCapacity = 4096;
          auto L = std::make_unique<BufferedLog>(std::move(O));
          L->setTelemetry(&Telem);
          return L;
        },
        Threads, /*Drain=*/true);
    double OverheadPct = (Off.App / On.App - 1.0) * 100.0;
    // Reader park/wake cycles per 1000 records over the telemetry-on reps.
    TelemetrySnapshot After = Telem.snapshot();
    double PerK = 1000.0 / (double(Threads) * MethodsPerThread * 4 * Reps);
    auto Delta = [&](Counter C) {
      return double(After.counter(C) - Before.counter(C)) * PerK;
    };
    std::printf("%-8u %13.2f %13.2f %9.1f%% %10.2f %10.2f\n", Threads,
                Off.App, On.App, OverheadPct, Delta(Counter::C_ReaderParks),
                Delta(Counter::C_ReaderWakes));
    jsonRow(BJ, "buffered-telemetry-off", Threads, Off);
    jsonRow(BJ, "buffered-telemetry-on", Threads, On);
  }
  hr();

  // Monitor-attached overhead: same telemetry-on configuration, but with
  // a live MonitorServer and one `watch 100` client streaming stats
  // every 100 ms while the producers run. The server thread only reads
  // Telemetry::snapshot(), so the append path must not notice the
  // difference (acceptance: within noise of buffered-telemetry-on).
  std::printf("\nMonitor-attached overhead (telemetry on, one watch-100ms "
              "client):\n\n");
  std::printf("%-8s %13s\n", "threads", "app M/s");
  hr();
  {
    Telemetry MonTelem;
    TelemetryMonitorSource Src(MonTelem);
    MonitorOptions MO;
    MO.SocketPath =
        "/tmp/vyrd-benchmon-" + std::to_string(getpid()) + ".sock";
    MonitorServer Server(MO, Src);
    std::atomic<bool> ClientStop{false};
    std::thread Client;
    if (Server.valid()) {
      Client = std::thread([&MO, &ClientStop] {
        sockaddr_un Addr;
        std::memset(&Addr, 0, sizeof(Addr));
        Addr.sun_family = AF_UNIX;
        std::memcpy(Addr.sun_path, MO.SocketPath.c_str(),
                    MO.SocketPath.size() + 1);
        int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (Fd < 0 || connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                              sizeof(Addr)) != 0) {
          if (Fd >= 0)
            close(Fd);
          return;
        }
        const char Watch[] = "watch 100\n";
        (void)!write(Fd, Watch, sizeof(Watch) - 1);
        char Buf[4096];
        while (!ClientStop.load(std::memory_order_relaxed))
          if (read(Fd, Buf, sizeof(Buf)) <= 0)
            break;
        close(Fd);
      });
    } else {
      std::fprintf(stderr, "monitor bench: bind failed (%s), measuring "
                           "without a client\n",
                   Server.error().c_str());
    }
    for (unsigned Threads : ThreadCounts) {
      Throughput Mon = measure(
          [&MonTelem] {
            BufferedLog::Options O;
            O.ShardCapacity = 4096;
            auto L = std::make_unique<BufferedLog>(std::move(O));
            L->setTelemetry(&MonTelem);
            return L;
          },
          Threads, /*Drain=*/true);
      std::printf("%-8u %13.2f\n", Threads, Mon.App);
      jsonRow(BJ, "buffered-monitor-on", Threads, Mon);
    }
    ClientStop.store(true);
    Server.stop(); // closes the client's fd, unblocking its read
    if (Client.joinable())
      Client.join();
  }
  hr();

  // Hand-written hooks vs the auto layer, identical record streams
  // (acceptance: auto app-side within 15% of hand, EXPERIMENTS.md).
  std::printf("\nAuto-instrumentation overhead (locked counter, BufferedLog, "
              "concurrent consumer):\n\n");
  std::printf("%-8s %13s %13s %10s\n", "threads", "hand app M/s",
              "auto app M/s", "overhead");
  hr();
  for (unsigned Threads : ThreadCounts) {
    Throughput Hand = measureCounter<HandBenchCounter>(Threads);
    Throughput Auto = measureCounter<AutoBenchCounter>(Threads);
    double OverheadPct = (Hand.App / Auto.App - 1.0) * 100.0;
    std::printf("%-8u %13.2f %13.2f %9.1f%%\n", Threads, Hand.App, Auto.App,
                OverheadPct);
    jsonRow(BJ, "buffered-hand", Threads, Hand);
    jsonRow(BJ, "buffered-auto", Threads, Auto);
  }
  hr();
  return BJ.write() ? 0 : 1;
}
