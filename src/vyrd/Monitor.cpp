//===- Monitor.cpp - Live introspection endpoint for a running verifier ---===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Monitor.h"

#include "vyrd/Value.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace vyrd;

MonitorSource::~MonitorSource() = default;

//===----------------------------------------------------------------------===//
// MonitorRegistry
//===----------------------------------------------------------------------===//

void MonitorRegistry::add(const std::string &Name,
                          std::shared_ptr<MonitorSource> Src) {
  std::lock_guard<std::mutex> G(M);
  for (auto &E : Sources)
    if (E.first == Name) {
      E.second = std::move(Src);
      return;
    }
  Sources.emplace_back(Name, std::move(Src));
}

void MonitorRegistry::remove(const std::string &Name) {
  std::lock_guard<std::mutex> G(M);
  Sources.erase(std::remove_if(Sources.begin(), Sources.end(),
                               [&](const auto &E) {
                                 return E.first == Name;
                               }),
                Sources.end());
}

std::vector<std::string> MonitorRegistry::names() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<std::string> Out;
  Out.reserve(Sources.size());
  for (const auto &E : Sources)
    Out.push_back(E.first);
  return Out;
}

std::shared_ptr<MonitorSource>
MonitorRegistry::resolve(const std::string &Name) const {
  std::lock_guard<std::mutex> G(M);
  for (const auto &E : Sources)
    if (E.first == Name)
      return E.second;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Response renderers
//===----------------------------------------------------------------------===//

namespace {

std::string objectLabel(const ObjectTelemetry &OT, size_t Index) {
  return OT.Name.empty() ? "object" + std::to_string(Index) : OT.Name;
}

std::string violationJson(const Violation &V) {
  char Buf[128];
  std::string Out = "{\"kind\":\"";
  Out += violationKindName(V.Kind);
  std::snprintf(Buf, sizeof(Buf), "\",\"seq\":%" PRIu64 ",\"tid\":%u",
                V.Seq, V.Tid);
  Out += Buf;
  Out += ",\"object\":\"";
  Out += jsonEscape(V.Object.valid() ? std::string(V.Object.str())
                                     : std::string());
  Out += "\",\"method\":\"";
  Out += jsonEscape(V.Method.valid() ? std::string(V.Method.str())
                                     : std::string());
  std::snprintf(Buf, sizeof(Buf), "\",\"methods_checked\":%" PRIu64,
                V.MethodsChecked);
  Out += Buf;
  Out += ",\"message\":\"" + jsonEscape(V.Message) + "\"}";
  return Out;
}

/// Violations attributed to object id \p Obj.
size_t violationsFor(const std::vector<Violation> &V, uint32_t Obj) {
  size_t N = 0;
  for (const Violation &X : V)
    N += X.Obj == Obj;
  return N;
}

} // namespace

const char *monitor::healthVerdict(const TelemetrySnapshot &S,
                                   size_t Violations) {
  if (Violations)
    return "violating";
  if (S.Stalled)
    return "stalled";
  return "ok";
}

std::string monitor::listJson(const TelemetrySnapshot &S,
                              const std::vector<Violation> &V) {
  char Buf[160];
  std::string Out = "{\"objects\":[";
  for (size_t O = 0; O < S.Objects.size(); ++O) {
    const ObjectTelemetry &OT = S.Objects[O];
    Out += O ? ",{" : "{";
    Out += "\"id\":" + std::to_string(O) + ",\"name\":\"" +
           jsonEscape(objectLabel(OT, O)) + "\"";
    std::snprintf(Buf, sizeof(Buf),
                  ",\"routed\":%" PRIu64 ",\"checked\":%" PRIu64
                  ",\"backlog\":%" PRIu64 ",\"violations\":%zu}",
                  OT.Routed, OT.Checked, OT.Backlog,
                  violationsFor(V, static_cast<uint32_t>(O)));
    Out += Buf;
  }
  Out += "]}";
  return Out;
}

std::string monitor::statsJson(const TelemetrySnapshot &S,
                               const std::vector<Violation> &V,
                               const std::vector<std::string> &Forensics) {
  // Wrap the telemetry JSON (already one object) with live-run fields.
  std::string Out = "{\"telemetry\":" + S.json();
  Out += ",\"health\":\"";
  Out += healthVerdict(S, V.size());
  Out += "\",\"violations\":" + std::to_string(V.size());
  Out += ",\"forensic_files\":[";
  for (size_t I = 0; I < Forensics.size(); ++I) {
    Out += I ? ",\"" : "\"";
    Out += jsonEscape(Forensics[I]) + "\"";
  }
  Out += "]}";
  return Out;
}

std::string monitor::violationsJson(const std::vector<Violation> &V) {
  std::string Out = "{\"violations\":[";
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += ",";
    Out += violationJson(V[I]);
  }
  Out += "]}";
  return Out;
}

std::string monitor::healthJson(const TelemetrySnapshot &S,
                                const std::vector<Violation> &V) {
  char Buf[160];
  std::string Out = "{\"health\":\"";
  Out += healthVerdict(S, V.size());
  std::snprintf(Buf, sizeof(Buf),
                "\",\"violations\":%zu,\"checker_lag\":%" PRIu64
                ",\"stalled\":%s}",
                V.size(), S.CheckerLag, S.Stalled ? "true" : "false");
  Out += Buf;
  return Out;
}

std::string monitor::promText(const TelemetrySnapshot &S,
                              size_t Violations) {
  char Buf[192];
  std::string Out;
  // Counters: monotonically increasing -> _total counter metrics.
  for (size_t C = 0; C < NumCounters; ++C) {
    const char *N = counterName(static_cast<Counter>(C));
    std::snprintf(Buf, sizeof(Buf),
                  "# TYPE vyrd_%s_total counter\nvyrd_%s_total %" PRIu64
                  "\n",
                  N, N, S.Counters[C]);
    Out += Buf;
  }
  // Gauges: current level plus the all-time high-watermark.
  for (size_t G = 0; G < NumGauges; ++G) {
    const char *N = gaugeName(static_cast<Gauge>(G));
    std::snprintf(Buf, sizeof(Buf),
                  "# TYPE vyrd_%s gauge\nvyrd_%s %" PRIu64
                  "\nvyrd_%s_hwm %" PRIu64 "\n",
                  N, N, S.Gauges[G], N, S.GaugeHwms[G]);
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "# TYPE vyrd_checker_lag gauge\nvyrd_checker_lag %" PRIu64
                "\n# TYPE vyrd_stalled gauge\nvyrd_stalled %d\n"
                "# TYPE vyrd_violations_total counter\n"
                "vyrd_violations_total %zu\n",
                S.CheckerLag, S.Stalled ? 1 : 0, Violations);
  Out += Buf;
  // Per-object pipeline counters, labelled by object name.
  for (size_t O = 0; O < S.Objects.size(); ++O) {
    const ObjectTelemetry &OT = S.Objects[O];
    std::string L = jsonEscape(objectLabel(OT, O)); // \" escapes suffice
    std::snprintf(Buf, sizeof(Buf),
                  "vyrd_object_routed_total{object=\"%s\"} %" PRIu64
                  "\nvyrd_object_checked_total{object=\"%s\"} %" PRIu64
                  "\nvyrd_object_backlog{object=\"%s\"} %" PRIu64 "\n",
                  L.c_str(), OT.Routed, L.c_str(), OT.Checked, L.c_str(),
                  OT.Backlog);
    Out += Buf;
  }
  // Histograms: cumulative buckets keyed by the power-of-two upper bound
  // (bucket B covers values of bit width B, so its bound is 2^B - 1).
  for (size_t H = 0; H < NumHistos; ++H) {
    const HistoSnapshot &HS = S.Histos[H];
    if (!HS.Count)
      continue;
    const char *N = histoName(static_cast<Histo>(H));
    std::snprintf(Buf, sizeof(Buf), "# TYPE vyrd_%s histogram\n", N);
    Out += Buf;
    uint64_t Cum = 0;
    size_t Last = 0;
    for (size_t B = 0; B < NumHistoBuckets; ++B)
      if (HS.Buckets[B])
        Last = B;
    for (size_t B = 0; B <= Last; ++B) {
      Cum += HS.Buckets[B];
      uint64_t Bound = B ? ((B >= 64 ? ~0ull : (1ull << B)) - 1) : 0;
      std::snprintf(Buf, sizeof(Buf),
                    "vyrd_%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", N,
                    Bound, Cum);
      Out += Buf;
    }
    std::snprintf(Buf, sizeof(Buf),
                  "vyrd_%s_bucket{le=\"+Inf\"} %" PRIu64 "\nvyrd_%s_sum %"
                  PRIu64 "\nvyrd_%s_count %" PRIu64 "\n",
                  N, HS.Count, N, HS.Sum, N, HS.Count);
    Out += Buf;
  }
  return Out;
}

std::string monitor::topText(const TelemetrySnapshot &S,
                             const std::vector<Violation> &V) {
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "vyrd: %s  lag=%" PRIu64 "  pending=%" PRIu64
                "  violations=%zu\n",
                healthVerdict(S, V.size()), S.CheckerLag,
                S.gauge(Gauge::G_PendingRecords), V.size());
  std::string Out = Buf;
  Out += S.str();
  for (const Violation &X : V) {
    Out += "  ! ";
    Out += X.str();
    Out += "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// MonitorServer
//===----------------------------------------------------------------------===//

namespace {

/// A request line longer than this is a protocol abuse; the client is
/// answered with an error and closed.
constexpr size_t MaxRequestBytes = 4096;
/// Pending unsent output above this closes the client (slow consumer);
/// the verifier-side thread must never buffer unboundedly.
constexpr size_t MaxOutputBytes = 4 << 20;

bool setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

} // namespace

struct MonitorServer::Client {
  int Fd = -1;
  std::string In;  ///< bytes received, not yet newline-terminated
  std::string Out; ///< bytes queued, not yet written
  bool CloseAfterFlush = false;
  /// watch mode: 0 = off, else interval in milliseconds.
  uint64_t WatchIntervalMs = 0;
  uint64_t NextWatchNs = 0;
  /// Registry mode: the session this connection attached to with
  /// `mon <name>` (null until then). The shared_ptr keeps the session's
  /// source alive across its removal from the registry.
  std::shared_ptr<MonitorSource> Bound;
};

MonitorSource *MonitorServer::sourceFor(Client &C) {
  if (Registry)
    return C.Bound.get();
  return Src;
}

MonitorServer::MonitorServer(const MonitorOptions &O, MonitorSource &Src)
    : Opts(O), Src(&Src) {
  bindSocket();
}

MonitorServer::MonitorServer(const MonitorOptions &O, MonitorRegistry &Reg)
    : Opts(O), Registry(&Reg) {
  bindSocket();
}

void MonitorServer::bindSocket() {
  if (Opts.SocketPath.empty()) {
    Error = "no socket path configured";
    return;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Opts.SocketPath;
    return;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ListenFd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return;
  }
  // A stale socket file from a killed run would fail bind(); replace it.
  unlink(Opts.SocketPath.c_str());
  if (bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0 ||
      listen(ListenFd, 8) != 0 || !setNonBlocking(ListenFd) ||
      pipe(WakeFds) != 0) {
    Error = std::string("bind/listen: ") + std::strerror(errno);
    close(ListenFd);
    ListenFd = -1;
    return;
  }
  setNonBlocking(WakeFds[0]);
  Valid = true;
  Server = std::thread([this] { serverMain(); });
}

MonitorServer::~MonitorServer() { stop(); }

void MonitorServer::wake() {
  char B = 'w';
  ssize_t Ignored = write(WakeFds[1], &B, 1);
  (void)Ignored;
}

void MonitorServer::stop() {
  if (!Valid)
    return;
  if (!StopFlag.exchange(true))
    wake();
  if (Server.joinable())
    Server.join();
  for (auto &C : Clients)
    close(C->Fd);
  Clients.clear();
  close(ListenFd);
  close(WakeFds[0]);
  close(WakeFds[1]);
  ListenFd = WakeFds[0] = WakeFds[1] = -1;
  unlink(Opts.SocketPath.c_str());
  Valid = false;
}

bool MonitorServer::handleRequest(Client &C, const std::string &Line) {
  // Trim and split off the command word.
  size_t B = Line.find_first_not_of(" \t\r");
  if (B == std::string::npos)
    return true; // empty line: ignore
  size_t E = Line.find_last_not_of(" \t\r");
  std::string Req = Line.substr(B, E - B + 1);
  std::string Cmd = Req.substr(0, Req.find_first_of(" \t"));
  Requests.fetch_add(1, std::memory_order_relaxed);

  // Commands needing no snapshot first.
  if (Cmd == "detach" || Cmd == "quit") {
    C.Out += "{\"ok\":true}\n";
    C.CloseAfterFlush = true;
    return true;
  }
  if (Registry) {
    if (Cmd == "mon") {
      size_t NB = Req.find_first_not_of(" \t", Cmd.size());
      std::string Name =
          NB == std::string::npos ? std::string() : Req.substr(NB);
      std::shared_ptr<MonitorSource> S = Registry->resolve(Name);
      if (S) {
        C.Bound = std::move(S);
        C.Out += "{\"ok\":true,\"session\":\"" + jsonEscape(Name) +
                 "\"}\n";
      } else {
        C.Out += "{\"error\":\"unknown session: " + jsonEscape(Name) +
                 "\"}\n";
      }
      return true;
    }
    if (!C.Bound) {
      // Before an attach, `list` enumerates the sessions; every data
      // command needs a bound session first.
      if (Cmd == "list") {
        std::string Out = "{\"sessions\":[";
        std::vector<std::string> Names = Registry->names();
        for (size_t I = 0; I < Names.size(); ++I) {
          Out += I ? ",\"" : "\"";
          Out += jsonEscape(Names[I]) + "\"";
        }
        C.Out += Out + "]}\n";
      } else {
        C.Out += "{\"error\":\"no session attached (use: mon <name>)\","
                 "\"commands\":[\"list\",\"mon\",\"detach\"]}\n";
      }
      return true;
    }
  }

  MonitorSource &Source = *sourceFor(C);
  TelemetrySnapshot S = Source.telemetrySnapshot();
  std::vector<Violation> V = Source.liveViolations();
  if (Cmd == "list") {
    C.Out += monitor::listJson(S, V) + "\n";
  } else if (Cmd == "stats") {
    C.Out += monitor::statsJson(S, V, Source.forensicFiles()) + "\n";
  } else if (Cmd == "violations") {
    C.Out += monitor::violationsJson(V) + "\n";
  } else if (Cmd == "health") {
    C.Out += monitor::healthJson(S, V) + "\n";
  } else if (Cmd == "prom") {
    C.Out += monitor::promText(S, V.size());
    C.Out += "# EOF\n";
  } else if (Cmd == "top") {
    C.Out += monitor::topText(S, V);
    C.Out += "# EOF\n";
  } else if (Cmd == "watch") {
    uint64_t Ms = 1000;
    if (Req.size() > Cmd.size())
      Ms = std::strtoull(Req.c_str() + Cmd.size(), nullptr, 10);
    C.WatchIntervalMs = std::min<uint64_t>(std::max<uint64_t>(Ms, 10),
                                           60000);
    C.NextWatchNs = telemetryNowNanos(); // first snapshot immediately
  } else {
    C.Out += "{\"error\":\"unknown command: " + jsonEscape(Cmd) +
             "\",\"commands\":[\"list\",\"stats\",\"violations\","
             "\"health\",\"watch\",\"prom\",\"top\",\"detach\"]}\n";
  }
  return true;
}

void MonitorServer::serverMain() {
  std::vector<pollfd> Fds;
  while (!StopFlag.load(std::memory_order_relaxed)) {
    Fds.clear();
    Fds.push_back({WakeFds[0], POLLIN, 0});
    Fds.push_back({ListenFd, POLLIN, 0});
    for (auto &C : Clients)
      Fds.push_back({C->Fd,
                     static_cast<short>(POLLIN |
                                        (C->Out.empty() ? 0 : POLLOUT)),
                     0});

    // Poll timeout: the nearest watch deadline, else a coarse tick.
    uint64_t Now = telemetryNowNanos();
    int64_t TimeoutMs = 500;
    for (auto &C : Clients)
      if (C->WatchIntervalMs) {
        int64_t D =
            (int64_t(C->NextWatchNs) - int64_t(Now)) / 1000000 + 1;
        TimeoutMs = std::min(TimeoutMs, std::max<int64_t>(D, 0));
      }
    poll(Fds.data(), Fds.size(), static_cast<int>(TimeoutMs));

    if (Fds[0].revents & POLLIN) { // drain the wake pipe
      char Buf[64];
      while (read(WakeFds[0], Buf, sizeof(Buf)) > 0)
        ;
    }

    // New connections.
    if (Fds[1].revents & POLLIN) {
      for (;;) {
        int Fd = accept(ListenFd, nullptr, nullptr);
        if (Fd < 0)
          break;
        setNonBlocking(Fd);
        auto C = std::make_unique<Client>();
        C->Fd = Fd;
        if (Clients.size() >= Opts.MaxClients) {
          C->Out = "{\"error\":\"too many clients\"}\n";
          C->CloseAfterFlush = true;
        }
        Clients.push_back(std::move(C));
      }
    }

    // Client I/O. Fds[i + 2] pairs with Clients[i] (both appended in
    // order above; Clients is not mutated between the two loops).
    Now = telemetryNowNanos();
    for (size_t I = 0; I < Clients.size(); ++I) {
      Client &C = *Clients[I];
      short Rev = I + 2 < Fds.size() ? Fds[I + 2].revents : 0;
      bool Dead = (Rev & (POLLERR | POLLHUP | POLLNVAL)) != 0;

      if (!Dead && (Rev & POLLIN)) {
        char Buf[4096];
        for (;;) {
          ssize_t N = read(C.Fd, Buf, sizeof(Buf));
          if (N > 0) {
            C.In.append(Buf, static_cast<size_t>(N));
            if (C.In.size() > MaxRequestBytes) {
              C.Out += "{\"error\":\"request too long\"}\n";
              C.CloseAfterFlush = true;
              C.In.clear();
              break;
            }
            continue;
          }
          if (N == 0)
            Dead = true; // orderly shutdown from the peer
          break;         // N < 0: EAGAIN or error; either way stop reading
        }
        size_t Pos;
        while (!C.CloseAfterFlush &&
               (Pos = C.In.find('\n')) != std::string::npos) {
          std::string Line = C.In.substr(0, Pos);
          C.In.erase(0, Pos + 1);
          handleRequest(C, Line);
        }
      }

      // watch ticks (even on quiet polls).
      if (!Dead && C.WatchIntervalMs && Now >= C.NextWatchNs) {
        if (MonitorSource *WS = sourceFor(C))
          C.Out += monitor::statsJson(WS->telemetrySnapshot(),
                                      WS->liveViolations(),
                                      WS->forensicFiles()) +
                   "\n";
        C.NextWatchNs = Now + C.WatchIntervalMs * 1000000ull;
      }

      if (!Dead && !C.Out.empty()) {
        ssize_t N = send(C.Fd, C.Out.data(), C.Out.size(), MSG_NOSIGNAL);
        if (N > 0)
          C.Out.erase(0, static_cast<size_t>(N));
        else if (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
          Dead = true;
        if (C.Out.size() > MaxOutputBytes)
          Dead = true; // slow consumer; do not buffer unboundedly
      }
      if (Dead || (C.CloseAfterFlush && C.Out.empty())) {
        close(C.Fd);
        C.Fd = -1;
      }
    }
    Clients.erase(std::remove_if(Clients.begin(), Clients.end(),
                                 [](const std::unique_ptr<Client> &C) {
                                   return C->Fd < 0;
                                 }),
                  Clients.end());
  }
}
