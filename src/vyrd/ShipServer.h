//===- ShipServer.h - The checker fleet's segment receiver ------*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The receiving half of segment shipping (docs/SHIPPING.md): a
/// ShipServer listens on a unix or TCP socket for SocketTransport
/// producers, runs one session thread per connection, and drives one
/// CheckerService per session. Per session it:
///
///  * resolves the Hello's program name into checker pipelines through a
///    ProgramPipelineResolver (the harness programs live above vyrd_core,
///    so the embedder — vyrd-checkd — injects the mapping),
///  * reassembles framed segment images (FrameParser resync keeps one
///    corrupted transfer from desynchronizing the stream), decodes them
///    through the ordinary LOGFORMAT v4 path and feeds the service,
///  * seeds the checkers from a v5 sidecar when the chain starts
///    mid-stream (the producer reclaimed an acked prefix),
///  * acks its fed watermark after every segment — the producer reclaims
///    its checked prefix on those acks, closing the bounded-memory loop —
///  * and on Close (or a producer crash: EOF mid-stream) finishes the
///    checkers and writes `<session>.report.json` with the same
///    VerifierReport JSON a local run would print.
///
/// Sessions register their telemetry + live violations in a
/// MonitorRegistry, so one `vyrd-mon` control socket can `list` the
/// fleet's sessions and `mon <name>` into any of them.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_SHIPSERVER_H
#define VYRD_SHIPSERVER_H

#include "vyrd/Checker.h"
#include "vyrd/CheckerService.h"
#include "vyrd/Monitor.h"
#include "vyrd/Transport.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace vyrd {

/// Maps a Hello's program name to the pipelines of the recording run:
/// fills \p NumObjects and a thread-safe \p Factory (see
/// CheckerService.h) and returns true, or returns false for an unknown
/// name (the session is refused). \p ViewLevel selects view- vs I/O-refinement pipelines.
using ProgramPipelineResolver = std::function<bool(
    const std::string &Program, bool ViewLevel, size_t &NumObjects,
    PipelineFactory &Factory)>;

/// Configuration for a ShipServer (vyrd-checkd's command line).
struct ShipServerOptions {
  /// Listen endpoint: "unix:<path>" or "tcp:<host>:<port>".
  std::string Listen;
  /// Later connects beyond this many live sessions are refused (closed
  /// immediately; the producer's retry/degrade path takes over).
  unsigned MaxSessions = 16;
  /// Checker pool size per session (1 = feed inline on the session
  /// thread).
  unsigned CheckerThreads = 1;
  /// Directory session reports are written into as
  /// `<dir>/<session>.report.json`; empty writes no report files (the
  /// report stays retrievable via sessionReportJson).
  std::string ReportDir;
  /// Checker tunables for every session pipeline.
  CheckerConfig Checker;
};

/// The segment receiver service.
class ShipServer {
public:
  /// Binds and starts the accept thread. \p Registry may be null (no
  /// monitor integration). Construction never throws; on bind failure
  /// the server is inert (valid() false, error() says why).
  ShipServer(const ShipServerOptions &O, ProgramPipelineResolver Resolver,
             MonitorRegistry *Registry);
  ~ShipServer();

  ShipServer(const ShipServer &) = delete;
  ShipServer &operator=(const ShipServer &) = delete;

  bool valid() const { return Valid; }
  const std::string &error() const { return Error; }

  /// Stops accepting, closes every session connection and joins all
  /// threads. Sessions cut off mid-stream finish over what they fed (the
  /// producer's degrade path owns the rest). Idempotent.
  void stop();

  /// Sessions that reached end-of-stream (Close or EOF) so far.
  uint64_t sessionsCompleted() const {
    return Completed.load(std::memory_order_acquire);
  }
  /// Names of every session seen (accept order, completed included).
  std::vector<std::string> sessionNames() const;
  /// Blocks until the named session completes (or \p TimeoutMs passes).
  bool waitForSessionEnd(const std::string &Name, unsigned TimeoutMs);
  /// The completed session's report JSON ("" while running or unknown).
  std::string sessionReportJson(const std::string &Name) const;

  /// Test hook: while set, segment acks are withheld (the final Close
  /// ack still flows) — lets tests assert that producer-side reclamation
  /// is gated on acks, not on local consumption.
  void setHoldAcks(bool Hold) {
    HoldAcks.store(Hold, std::memory_order_release);
  }

private:
  struct Session;

  void acceptMain();
  /// One thread per accepted connection: parses frames, binds to a
  /// session at Hello (creating it, or adopting an idle one on a
  /// producer reconnect), feeds it until EOF.
  void connMain(int Fd);
  std::shared_ptr<Session> bindSession(const std::string &Name,
                                       const std::string &Program,
                                       bool ViewLevel, int Fd);
  void handleFrame(Session &S, const wire::Frame &F);
  void completeSession(Session &S, uint64_t FinalSeqExclusive,
                       bool Truncated);

  ShipServerOptions Opts;
  ProgramPipelineResolver Resolver;
  MonitorRegistry *Registry;
  std::string Error;
  bool Valid = false;

  int ListenFd = -1;
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> HoldAcks{false};
  std::atomic<uint64_t> Completed{0};
  std::thread Acceptor;

  mutable std::mutex M; ///< guards Sessions + connection threads
  std::condition_variable CompletedCv;
  std::vector<std::shared_ptr<Session>> Sessions;
  std::vector<std::thread> ConnThreads;
};

} // namespace vyrd

#endif // VYRD_SHIPSERVER_H
