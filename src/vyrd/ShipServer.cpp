//===- ShipServer.cpp - The checker fleet's segment receiver --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/ShipServer.h"

#include "vyrd/CheckerService.h"
#include "vyrd/Serialize.h"
#include "vyrd/Verifier.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace vyrd;

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

/// One producer stream and its checking state. Created at the first
/// Hello; a later connection presenting the same name while this one is
/// idle (its connection died without a Close) adopts it — that is how a
/// reconnecting SocketTransport resumes: already-fed segments dedup on
/// FedIndex, and the watermark is re-acked so the producer's reclamation
/// does not stall.
struct ShipServer::Session {
  std::string Name;
  std::string Program;
  bool ViewLevel = false;

  /// Fd of the currently attached connection (-1 while idle). Guarded by
  /// the server mutex for attach/detach; the owning connection thread
  /// reads it freely.
  int Fd = -1;
  bool Idle = false;

  std::unique_ptr<Telemetry> Telem;
  std::unique_ptr<CheckerService> Svc;

  /// Segment assembly (one at a time; a new SegmentBegin drops any
  /// partial predecessor — the producer retries whole segments).
  bool Assembling = false;
  uint64_t CurIndex = 0;
  uint64_t Expected = 0;
  std::vector<uint8_t> Image;

  /// The sidecar shipped ahead of a mid-chain first segment.
  bool HavePendingSnap = false;
  SnapshotFile PendingSnap;

  uint64_t FedIndex = 0; ///< highest segment index fed (dedup on resume)
  bool AnyFed = false;
  std::atomic<uint64_t> Watermark{0}; ///< exclusive fed watermark
  uint64_t FinalSeq = 0;              ///< from Close (0 until then)

  bool Closed = false; ///< Close frame processed
  std::atomic<bool> Done{false};
  std::string ReportJson; ///< set under the server mutex at completion

  struct Source;
};

/// The session's monitor window (registered under its name). Holds the
/// session by shared_ptr so a bound vyrd-mon client outlives removal.
struct ShipServer::Session::Source : MonitorSource {
  explicit Source(std::shared_ptr<Session> S) : S(std::move(S)) {}
  TelemetrySnapshot telemetrySnapshot() override {
    return S->Telem ? S->Telem->snapshot() : TelemetrySnapshot();
  }
  std::vector<Violation> liveViolations() override {
    return S->Svc ? S->Svc->liveViolations() : std::vector<Violation>();
  }
  std::vector<std::string> forensicFiles() override {
    return S->Svc ? S->Svc->forensicFiles() : std::vector<std::string>();
  }
  std::shared_ptr<Session> S;
};

//===----------------------------------------------------------------------===//
// Socket plumbing
//===----------------------------------------------------------------------===//

namespace {

bool sendAllFd(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N =
        send(Fd, Bytes.data() + Off, Bytes.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

void sendAck(int Fd, uint64_t Watermark) {
  if (Fd < 0)
    return;
  ByteWriter W;
  W.varint(Watermark);
  std::string Out;
  wire::appendFrame(Out, wire::FT_WatermarkAck, W.buffer().data(),
                    W.buffer().size());
  (void)sendAllFd(Fd, Out);
}

int listenOn(const ShipEndpoint &Ep, std::string &Err) {
  int Fd = -1;
  if (Ep.IsUnix) {
    Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Ep.Path.c_str(), sizeof(Addr.sun_path) - 1);
    unlink(Ep.Path.c_str()); // stale socket from a killed daemon
    if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
        listen(Fd, 16) != 0) {
      Err = std::string("bind/listen ") + Ep.Path + ": " +
            std::strerror(errno);
      close(Fd);
      return -1;
    }
    return Fd;
  }
  addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_PASSIVE;
  addrinfo *Res = nullptr;
  std::string Port = std::to_string(Ep.Port);
  int RC = getaddrinfo(Ep.Host.empty() ? nullptr : Ep.Host.c_str(),
                       Port.c_str(), &Hints, &Res);
  if (RC != 0) {
    Err = std::string("getaddrinfo: ") + gai_strerror(RC);
    return -1;
  }
  for (addrinfo *A = Res; A; A = A->ai_next) {
    Fd = socket(A->ai_family, A->ai_socktype, A->ai_protocol);
    if (Fd < 0)
      continue;
    int One = 1;
    setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (bind(Fd, A->ai_addr, A->ai_addrlen) == 0 && listen(Fd, 16) == 0)
      break;
    close(Fd);
    Fd = -1;
  }
  freeaddrinfo(Res);
  if (Fd < 0)
    Err = "cannot bind tcp endpoint " + Ep.Host + ":" + Port;
  return Fd;
}

} // namespace

//===----------------------------------------------------------------------===//
// ShipServer
//===----------------------------------------------------------------------===//

ShipServer::ShipServer(const ShipServerOptions &O,
                       ProgramPipelineResolver Resolver,
                       MonitorRegistry *Registry)
    : Opts(O), Resolver(std::move(Resolver)), Registry(Registry) {
  ShipEndpoint Ep;
  if (!parseShipEndpoint(Opts.Listen, Ep, Error))
    return;
  ListenFd = listenOn(Ep, Error);
  if (ListenFd < 0)
    return;
  Valid = true;
  Acceptor = std::thread([this] { acceptMain(); });
}

ShipServer::~ShipServer() { stop(); }

void ShipServer::stop() {
  if (!Valid || StopFlag.exchange(true))
    return;
  // Unblock the acceptor and every connection thread, then join them.
  shutdown(ListenFd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> G(M);
    for (auto &S : Sessions)
      if (S->Fd >= 0)
        shutdown(S->Fd, SHUT_RDWR);
  }
  if (Acceptor.joinable())
    Acceptor.join();
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> G(M);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  close(ListenFd);
  ListenFd = -1;
  // Sessions whose producer died without a Close still owe a report over
  // what they fed (the crash-forensics path).
  std::vector<std::shared_ptr<Session>> Snapshot;
  {
    std::lock_guard<std::mutex> G(M);
    Snapshot = Sessions;
  }
  for (auto &S : Snapshot)
    if (!S->Done.load(std::memory_order_acquire))
      completeSession(*S, 0, /*Truncated=*/true);
}

std::vector<std::string> ShipServer::sessionNames() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<std::string> Out;
  Out.reserve(Sessions.size());
  for (const auto &S : Sessions)
    Out.push_back(S->Name);
  return Out;
}

bool ShipServer::waitForSessionEnd(const std::string &Name,
                                   unsigned TimeoutMs) {
  std::unique_lock<std::mutex> G(M);
  return CompletedCv.wait_for(G, std::chrono::milliseconds(TimeoutMs),
                              [&] {
                                for (const auto &S : Sessions)
                                  if (S->Name == Name &&
                                      S->Done.load(
                                          std::memory_order_acquire))
                                    return true;
                                return false;
                              });
}

std::string ShipServer::sessionReportJson(const std::string &Name) const {
  std::lock_guard<std::mutex> G(M);
  // Latest session under that name wins (a replaced name keeps both
  // entries; reports are only set once a session is Done).
  for (auto It = Sessions.rbegin(); It != Sessions.rend(); ++It)
    if ((*It)->Name == Name && (*It)->Done.load(std::memory_order_acquire))
      return (*It)->ReportJson;
  return "";
}

void ShipServer::acceptMain() {
  while (!StopFlag.load(std::memory_order_relaxed)) {
    pollfd P{ListenFd, POLLIN, 0};
    if (poll(&P, 1, 200) <= 0)
      continue;
    int Fd = accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    std::lock_guard<std::mutex> G(M);
    size_t Live = 0;
    for (const auto &S : Sessions)
      Live += S->Fd >= 0;
    if (StopFlag.load(std::memory_order_relaxed) ||
        Live >= Opts.MaxSessions) {
      close(Fd);
      continue;
    }
    ConnThreads.emplace_back([this, Fd] { connMain(Fd); });
  }
}

std::shared_ptr<ShipServer::Session>
ShipServer::bindSession(const std::string &Name, const std::string &Program,
                        bool ViewLevel, int Fd) {
  std::lock_guard<std::mutex> G(M);
  for (auto &S : Sessions) {
    if (S->Name != Name)
      continue;
    if (S->Idle && !S->Done.load(std::memory_order_acquire)) {
      // Producer reconnect: adopt the idle session and re-ack the
      // watermark so the producer knows where the checkers stand.
      S->Idle = false;
      S->Fd = Fd;
      // Any half-assembled segment from the dead connection is stale.
      S->Assembling = false;
      S->Image.clear();
      sendAck(Fd, S->Watermark.load(std::memory_order_acquire));
      return S;
    }
    if (S->Fd >= 0)
      return nullptr; // name in use by a live connection
  }
  // Fresh session.
  size_t NumObjects = 0;
  PipelineFactory Factory;
  if (!Resolver || !Resolver(Program, ViewLevel, NumObjects, Factory) ||
      NumObjects == 0)
    return nullptr;
  auto S = std::make_shared<Session>();
  S->Name = Name;
  S->Program = Program;
  S->ViewLevel = ViewLevel;
  S->Fd = Fd;
  S->Svc = std::make_unique<CheckerService>(CheckerServiceOptions{});
  Telemetry::Options TO;
  // Runs only in snapshot(): the session has no sampler, and the monitor
  // source and the report hold the session, so Svc outlives every call.
  TO.Pull = [Svc = S->Svc.get()](TelemetrySnapshot &T) {
    Svc->pullTelemetry(T);
  };
  S->Telem = std::make_unique<Telemetry>(std::move(TO));
  S->Svc->setTelemetry(S->Telem.get());
  CheckerConfig CC = Opts.Checker;
  CC.Mode = ViewLevel ? CheckMode::CM_ViewRefinement
                      : CheckMode::CM_IORefinement;
  std::string Err;
  if (!S->Svc->addObjects(NumObjects, Factory, CC, Err))
    return nullptr;
  if (Opts.CheckerThreads > 1)
    S->Svc->startPool(Opts.CheckerThreads);
  Sessions.push_back(S);
  if (Registry)
    Registry->add(Name, std::make_shared<Session::Source>(S));
  return S;
}

void ShipServer::completeSession(Session &S, uint64_t FinalSeqExclusive,
                                 bool Truncated) {
  {
    std::lock_guard<std::mutex> G(M);
    if (S.Done.load(std::memory_order_acquire))
      return;
  }
  S.Svc->finishChecking();
  VerifierReport R;
  S.Svc->buildReport(R);
  R.LogRecords = FinalSeqExclusive ? FinalSeqExclusive
                                   : S.Watermark.load(
                                         std::memory_order_acquire);
  if (S.Telem) {
    R.TelemetryEnabled = true;
    R.Telemetry = S.Telem->snapshot();
  }
  if (Truncated)
    R.Notes.push_back(
        "stream truncated: the producer disconnected without a Close "
        "frame; this report covers the fed prefix (watermark " +
        std::to_string(S.Watermark.load(std::memory_order_acquire)) + ")");
  std::string Json = R.json();
  if (!Opts.ReportDir.empty()) {
    std::string Path = Opts.ReportDir + "/" + S.Name + ".report.json";
    if (FILE *F = std::fopen(Path.c_str(), "wb")) {
      std::fwrite(Json.data(), 1, Json.size(), F);
      std::fputc('\n', F);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "vyrd-checkd: cannot write report %s\n",
                   Path.c_str());
    }
  }
  {
    std::lock_guard<std::mutex> G(M);
    S.ReportJson = std::move(Json);
    S.Done.store(true, std::memory_order_release);
  }
  Completed.fetch_add(1, std::memory_order_acq_rel);
  CompletedCv.notify_all();
}

void ShipServer::handleFrame(Session &S, const wire::Frame &F) {
  ByteReader R(F.Payload.data(), F.Payload.size());
  switch (F.Type) {
  case wire::FT_Hello:
    // Re-hello on a live connection: answer with the watermark (the
    // producer uses it to dedup after an application-level retry).
    sendAck(S.Fd, S.Watermark.load(std::memory_order_acquire));
    break;
  case wire::FT_SegmentBegin: {
    uint64_t Index = R.varint();
    uint64_t Bytes = R.varint();
    if (!R.ok() || Bytes > wire::MaxFramePayload * 16ull)
      break;
    if (S.Assembling && S.Telem)
      S.Telem->count(Counter::C_ShipPartialDrops);
    S.Assembling = true;
    S.CurIndex = Index;
    S.Expected = Bytes;
    S.Image.clear();
    S.Image.reserve(static_cast<size_t>(Bytes));
    break;
  }
  case wire::FT_SegmentChunk:
    if (!S.Assembling)
      break;
    if (S.Image.size() + F.Payload.size() > S.Expected) {
      // Oversized assembly: stream confusion; drop the segment.
      S.Assembling = false;
      S.Image.clear();
      if (S.Telem)
        S.Telem->count(Counter::C_ShipPartialDrops);
      break;
    }
    S.Image.insert(S.Image.end(), F.Payload.begin(), F.Payload.end());
    break;
  case wire::FT_Snapshot: {
    uint64_t Index = R.varint();
    if (!R.ok())
      break;
    size_t Off = R.position();
    if (decodeSnapshot(F.Payload.data() + Off, F.Payload.size() - Off,
                       S.PendingSnap)) {
      S.PendingSnap.SegmentIndex = Index;
      S.HavePendingSnap = true;
    }
    break;
  }
  case wire::FT_SegmentEnd: {
    uint64_t Index = R.varint();
    if (!R.ok())
      break;
    if (!S.Assembling || Index != S.CurIndex ||
        S.Image.size() != S.Expected) {
      // Incomplete or mismatched transfer (e.g. chunks lost to a CRC
      // resync): drop it without an ack; the producer retries the whole
      // segment.
      S.Assembling = false;
      S.Image.clear();
      if (S.Telem)
        S.Telem->count(Counter::C_ShipPartialDrops);
      break;
    }
    S.Assembling = false;
    if (Index <= S.FedIndex && S.AnyFed) {
      // Duplicate after a reconnect: already fed; just re-ack.
      S.Image.clear();
      sendAck(S.Fd, S.Watermark.load(std::memory_order_acquire));
      break;
    }
    ByteReader SR(S.Image.data(), S.Image.size());
    LogSegmentInfo Seg;
    uint32_t Version = readLogHeader(SR, &Seg);
    if (!Version) {
      S.Image.clear();
      if (S.Telem)
        S.Telem->count(Counter::C_ShipPartialDrops);
      break;
    }
    if (!S.AnyFed && Seg.FirstSeq > 0) {
      // Mid-chain start: the producer reclaimed an acked prefix before
      // we joined (or we are a replacement checker). The sidecar shipped
      // ahead of this segment seeds the checkers; without it the check
      // would be unsound, so the segment is refused (no ack — the
      // producer's degrade path takes over).
      if (!S.HavePendingSnap || S.PendingSnap.SegmentIndex != Index) {
        S.Image.clear();
        if (S.Telem)
          S.Telem->count(Counter::C_ShipPartialDrops);
        break;
      }
      std::string Err;
      if (!S.Svc->restoreFromSnapshot(S.PendingSnap, Err)) {
        std::fprintf(stderr, "vyrd-checkd: snapshot restore failed: %s\n",
                     Err.c_str());
        S.Image.clear();
        break;
      }
      S.Watermark.store(S.PendingSnap.Watermark, std::memory_order_release);
    }
    ActionDecoder Decoder;
    Decoder.setVersion(Version);
    std::vector<Action> Batch;
    bool Clean = true;
    while (SR.ok() && !SR.atEnd()) {
      Action A;
      if (!Decoder.decode(SR, A)) {
        Clean = false;
        break;
      }
      Batch.push_back(std::move(A));
    }
    if (!Clean || !SR.ok()) {
      S.Image.clear();
      if (S.Telem)
        S.Telem->count(Counter::C_ShipPartialDrops);
      break;
    }
    TelemetryCell *TC = S.Telem ? &S.Telem->cell() : nullptr;
    S.Svc->routeRange(Batch, 0, Batch.size(), TC);
    S.AnyFed = true;
    S.FedIndex = Index;
    if (!Batch.empty())
      S.Watermark.store(Batch.back().Seq + 1, std::memory_order_release);
    if (S.Telem) {
      S.Telem->count(Counter::C_ShipSegmentsRecv);
      S.Telem->count(Counter::C_ShipRecordsRecv, Batch.size());
      S.Telem->noteConsumed(S.Watermark.load(std::memory_order_acquire));
    }
    S.Image.clear();
    if (!HoldAcks.load(std::memory_order_acquire))
      sendAck(S.Fd, S.Watermark.load(std::memory_order_acquire));
    break;
  }
  case wire::FT_Close: {
    uint64_t FinalSeq = R.varint();
    if (!R.ok())
      break;
    S.Closed = true;
    S.FinalSeq = FinalSeq;
    S.Watermark.store(FinalSeq, std::memory_order_release);
    completeSession(S, FinalSeq, /*Truncated=*/false);
    // The final ack always flows (HoldAcks only withholds segment acks):
    // the producer's finish() blocks on it.
    sendAck(S.Fd, FinalSeq);
    break;
  }
  default:
    break; // unknown frame type: ignore (forward compatibility)
  }
}

void ShipServer::connMain(int Fd) {
  wire::FrameParser Parser;
  uint64_t CrcSeen = 0, ResyncSeen = 0;
  std::shared_ptr<Session> S;
  char Buf[64 << 10];
  for (;;) {
    ssize_t N = recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Parser.feed(Buf, static_cast<size_t>(N));
    wire::Frame F;
    while (Parser.next(F)) {
      if (!S) {
        if (F.Type != wire::FT_Hello)
          continue; // pre-Hello garbage: ignore
        ByteReader R(F.Payload.data(), F.Payload.size());
        std::string Name = R.str();
        std::string Program = R.str();
        bool ViewLevel = R.u8() != 0;
        if (!R.ok() || Name.empty())
          continue;
        S = bindSession(Name, Program, ViewLevel, Fd);
        if (!S) {
          // Unknown program or name collision: refuse the stream.
          close(Fd);
          return;
        }
        continue;
      }
      handleFrame(*S, F);
    }
    if (S && S->Telem) {
      if (Parser.crcErrors() > CrcSeen)
        S->Telem->count(Counter::C_ShipCrcErrors,
                        Parser.crcErrors() - CrcSeen);
      if (Parser.resyncs() > ResyncSeen)
        S->Telem->count(Counter::C_ShipResyncs,
                        Parser.resyncs() - ResyncSeen);
      CrcSeen = Parser.crcErrors();
      ResyncSeen = Parser.resyncs();
    }
  }
  close(Fd);
  if (!S)
    return;
  std::lock_guard<std::mutex> G(M);
  S->Fd = -1;
  if (S->Closed || S->Done.load(std::memory_order_acquire))
    return;
  // EOF without Close: the producer died or will reconnect. Keep the
  // session idle and adoptable; stop() finalizes it with a truncation
  // note if no one ever does.
  if (S->Assembling && S->Telem)
    S->Telem->count(Counter::C_ShipPartialDrops);
  S->Assembling = false;
  S->Image.clear();
  S->Idle = true;
}
