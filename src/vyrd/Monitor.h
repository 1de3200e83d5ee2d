//===- Monitor.h - Live introspection endpoint for a running verifier -----===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opt-in live observability surface for the verification pipeline
/// (docs/OBSERVABILITY.md, "Live monitoring"). A MonitorServer owns one
/// dedicated thread listening on a unix-domain socket and speaks a
/// newline-delimited request/response protocol:
///
///   list        -> one JSON line: registered objects with routed /
///                  checked / backlog counters
///   stats       -> one JSON line: full TelemetrySnapshot (counters,
///                  gauges + HWMs, histograms, per-object rows, checker
///                  lag, stall flag) plus live violation/forensic counts
///   violations  -> one JSON line: every violation published so far
///   health      -> one JSON line: {"health":"ok|stalled|violating",
///                  ...} for scripts
///   watch N     -> a `stats` line every N milliseconds until the client
///                  disconnects (N in [10, 60000], default 1000)
///   prom        -> Prometheus text exposition of the snapshot, a
///                  multi-line block terminated by a `# EOF` line
///   top         -> human-readable screenful, also `# EOF`-terminated
///   detach      -> server closes the connection
///
/// The server only *reads*, and only through paths that are already safe
/// against concurrent writers: Telemetry::snapshot() (lock-free cells,
/// relaxed atomics, and the pull of the stages' own counts under the
/// locks their reports are read under, none of which an append takes)
/// and the MonitorSource's mutex-guarded published violation list.
/// Attaching or detaching any number of clients therefore costs the
/// append/check hot path nothing. Malformed requests get one
/// JSON error line; oversized requests and abrupt disconnects close the
/// client, never the server; the verifier never blocks on a slow client
/// (bounded output buffers, nonblocking writes).
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_MONITOR_H
#define VYRD_MONITOR_H

#include "vyrd/Telemetry.h"
#include "vyrd/Violation.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vyrd {

/// Configuration for the monitor endpoint (VerifierConfig::Monitor).
struct MonitorOptions {
  /// Filesystem path of the unix-domain socket. Empty disables the
  /// monitor entirely (no thread, no socket). An existing socket file at
  /// this path is replaced (stale sockets from killed runs are expected).
  std::string SocketPath;
  /// Maximum simultaneously attached clients; later connects get one
  /// JSON error line and are closed.
  unsigned MaxClients = 8;
};

/// What the monitor serves: a telemetry snapshot plus the live violation
/// and forensic-bundle lists. Implemented by the Verifier (private
/// adapter) and by TelemetryMonitorSource for standalone benches/tests.
/// All methods must be callable from the server thread at any time
/// between MonitorServer construction and destruction.
class MonitorSource {
public:
  virtual ~MonitorSource();
  virtual TelemetrySnapshot telemetrySnapshot() = 0;
  /// Violations published so far (may trail the checkers by one batch).
  virtual std::vector<Violation> liveViolations() { return {}; }
  /// Paths of forensic bundles written so far (docs/OBSERVABILITY.md,
  /// "Forensic bundles").
  virtual std::vector<std::string> forensicFiles() { return {}; }
};

/// MonitorSource over a bare Telemetry hub (no violations): lets benches
/// and tests stand up a monitor endpoint without a Verifier.
class TelemetryMonitorSource : public MonitorSource {
public:
  explicit TelemetryMonitorSource(Telemetry &Hub) : Hub(Hub) {}
  TelemetrySnapshot telemetrySnapshot() override { return Hub.snapshot(); }

private:
  Telemetry &Hub;
};

/// Pure renderers for the protocol responses, shared by the server and
/// directly unit-testable. Each *Json returns exactly one line (no
/// trailing newline); promText/topText return multi-line blocks without
/// the `# EOF` terminator (the server appends it).
namespace monitor {
std::string listJson(const TelemetrySnapshot &S,
                     const std::vector<Violation> &V);
std::string statsJson(const TelemetrySnapshot &S,
                      const std::vector<Violation> &V,
                      const std::vector<std::string> &Forensics);
std::string violationsJson(const std::vector<Violation> &V);
std::string healthJson(const TelemetrySnapshot &S,
                       const std::vector<Violation> &V);
/// Verdict only: "ok", "stalled" (watchdog), or "violating" — worst
/// wins.
const char *healthVerdict(const TelemetrySnapshot &S, size_t Violations);
std::string promText(const TelemetrySnapshot &S, size_t Violations);
std::string topText(const TelemetrySnapshot &S,
                    const std::vector<Violation> &V);
} // namespace monitor

/// Named monitor sources for multi-session services (vyrd-checkd): each
/// shipping session registers its source under its stream name, and a
/// registry-mode MonitorServer lets one control socket introspect any of
/// them (`list` names the sessions, `mon <name>` binds the connection to
/// one, then the regular protocol applies). Sources are held by
/// shared_ptr so a bound client keeps "its" session queryable even after
/// the session ends and is removed from the registry.
class MonitorRegistry {
public:
  /// Registers (or replaces) \p Src under \p Name.
  void add(const std::string &Name, std::shared_ptr<MonitorSource> Src);
  void remove(const std::string &Name);
  /// Registered session names, registration order.
  std::vector<std::string> names() const;
  /// The source registered under \p Name, or null.
  std::shared_ptr<MonitorSource> resolve(const std::string &Name) const;

private:
  mutable std::mutex M;
  std::vector<std::pair<std::string, std::shared_ptr<MonitorSource>>>
      Sources;
};

/// The endpoint: binds the socket and serves requests from its own
/// thread until destroyed (or stop()). Construction never throws; when
/// the socket cannot be bound the server is inert (valid() false) and
/// the error is available via error() — a broken monitor must not take
/// down the verifier it observes.
///
/// Two modes: bound to one MonitorSource (a Verifier's private adapter —
/// the historical shape), or to a MonitorRegistry (vyrd-checkd), where a
/// client must first `mon <name>` one of the `list`ed sessions before
/// the data commands answer.
class MonitorServer {
public:
  MonitorServer(const MonitorOptions &O, MonitorSource &Src);
  /// Registry mode: serves every session in \p Reg.
  MonitorServer(const MonitorOptions &O, MonitorRegistry &Reg);
  ~MonitorServer();

  MonitorServer(const MonitorServer &) = delete;
  MonitorServer &operator=(const MonitorServer &) = delete;

  /// Whether the socket was bound and the server thread is running.
  bool valid() const { return Valid; }
  /// Bind/listen failure description when !valid(); empty otherwise.
  const std::string &error() const { return Error; }
  const std::string &socketPath() const { return Opts.SocketPath; }

  /// Requests answered so far (any command, across all clients).
  uint64_t requestsServed() const {
    return Requests.load(std::memory_order_relaxed);
  }

  /// Stops the server thread, closes every client, unlinks the socket.
  /// Idempotent; also run by the destructor.
  void stop();

private:
  struct Client;

  void serverMain();
  void wake();
  bool handleRequest(Client &C, const std::string &Line);
  /// The source a client's data commands read from: the fixed source in
  /// single-source mode, the client's bound session in registry mode
  /// (null until `mon <name>`).
  MonitorSource *sourceFor(Client &C);
  void bindSocket();

  MonitorOptions Opts;
  MonitorSource *Src = nullptr;       ///< single-source mode
  MonitorRegistry *Registry = nullptr; ///< registry mode
  std::string Error;
  bool Valid = false;

  int ListenFd = -1;
  int WakeFds[2] = {-1, -1}; ///< self-pipe: [0] polled, [1] written
  std::atomic<bool> StopFlag{false};
  std::atomic<uint64_t> Requests{0};
  std::vector<std::unique_ptr<Client>> Clients;
  std::thread Server;
};

} // namespace vyrd

#endif // VYRD_MONITOR_H
