//===- Transport.cpp - Shipping closed log segments across processes ------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vyrd/Transport.h"

#include "vyrd/Backpressure.h"
#include "vyrd/Serialize.h"
#include "vyrd/Snapshot.h"
#include "vyrd/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace vyrd;

//===----------------------------------------------------------------------===//
// Endpoint parsing
//===----------------------------------------------------------------------===//

size_t vyrd::maxUnixSocketPathLen() {
  return sizeof(sockaddr_un::sun_path) - 1;
}

bool vyrd::parseShipEndpoint(const std::string &Spec, ShipEndpoint &Out,
                             std::string &Err) {
  if (Spec.rfind("unix:", 0) == 0) {
    Out.IsUnix = true;
    Out.Path = Spec.substr(5);
    if (Out.Path.empty()) {
      Err = "unix endpoint needs a socket path (unix:<path>)";
      return false;
    }
    if (Out.Path.size() > maxUnixSocketPathLen()) {
      Err = "unix socket path exceeds the sockaddr_un limit of " +
            std::to_string(maxUnixSocketPathLen()) + " bytes: " + Out.Path;
      return false;
    }
    return true;
  }
  if (Spec.rfind("tcp:", 0) == 0) {
    std::string Rest = Spec.substr(4);
    size_t Colon = Rest.rfind(':');
    if (Colon == std::string::npos || Colon == 0 ||
        Colon + 1 == Rest.size()) {
      Err = "tcp endpoint needs host and port (tcp:<host>:<port>)";
      return false;
    }
    Out.IsUnix = false;
    Out.Host = Rest.substr(0, Colon);
    std::string PortStr = Rest.substr(Colon + 1);
    char *End = nullptr;
    unsigned long P = std::strtoul(PortStr.c_str(), &End, 10);
    if (!End || *End != '\0' || P == 0 || P > 65535) {
      Err = "tcp endpoint port must be in [1, 65535]: " + PortStr;
      return false;
    }
    Out.Port = static_cast<uint16_t>(P);
    return true;
  }
  Err = "unknown endpoint scheme (use unix:<path> or tcp:<host>:<port>): " +
        Spec;
  return false;
}

//===----------------------------------------------------------------------===//
// Wire framing
//===----------------------------------------------------------------------===//

namespace {

/// CRC-32 lookup table (IEEE 802.3 / zlib polynomial, reflected).
const uint32_t *crcTable() {
  static uint32_t Table[256];
  static bool Init = [] {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
      Table[I] = C;
    }
    return true;
  }();
  (void)Init;
  return Table;
}

uint32_t readLE32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) | static_cast<uint32_t>(P[1]) << 8 |
         static_cast<uint32_t>(P[2]) << 16 |
         static_cast<uint32_t>(P[3]) << 24;
}

void appendLE32(std::string &Out, uint32_t V) {
  Out.push_back(static_cast<char>(V & 0xFF));
  Out.push_back(static_cast<char>((V >> 8) & 0xFF));
  Out.push_back(static_cast<char>((V >> 16) & 0xFF));
  Out.push_back(static_cast<char>((V >> 24) & 0xFF));
}

} // namespace

uint32_t wire::crc32(const void *Data, size_t Len, uint32_t Seed) {
  const uint32_t *T = crcTable();
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t C = ~Seed;
  for (size_t I = 0; I < Len; ++I)
    C = T[(C ^ P[I]) & 0xFF] ^ (C >> 8);
  return ~C;
}

void wire::appendFrame(std::string &Out, uint8_t Type, const void *Payload,
                       size_t Len) {
  Out.append(reinterpret_cast<const char *>(FrameMagic), 4);
  Out.push_back(static_cast<char>(Type));
  appendLE32(Out, static_cast<uint32_t>(Len));
  Out.append(static_cast<const char *>(Payload), Len);
  uint32_t C = crc32(&Type, 1);
  C = crc32(Payload, Len, C);
  appendLE32(Out, C);
}

void wire::FrameParser::feed(const void *Data, size_t Len) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  Buf.insert(Buf.end(), P, P + Len);
}

bool wire::FrameParser::scanToMagic() {
  size_t Start = Pos;
  while (Pos + sizeof(FrameMagic) <= Buf.size() &&
         std::memcmp(Buf.data() + Pos, FrameMagic, sizeof(FrameMagic)) != 0)
    ++Pos;
  if (Pos != Start)
    ++Resyncs;
  return Pos + sizeof(FrameMagic) <= Buf.size();
}

bool wire::FrameParser::next(Frame &Out) {
  // Frame layout: magic[4] type[1] len[4] payload[len] crc[4].
  constexpr size_t HeaderBytes = 9;
  for (;;) {
    bool HaveMagic = scanToMagic();
    if (!HaveMagic || Buf.size() - Pos < HeaderBytes)
      break; // need more bytes (or final <4-byte tail)
    uint8_t Type = Buf[Pos + 4];
    uint32_t Len = readLE32(Buf.data() + Pos + 5);
    if (Len > MaxFramePayload) {
      // Not a real frame (corrupt length would make us wait forever for
      // bytes that never come): treat the magic as coincidental and scan
      // on from the next byte.
      ++CrcErrors;
      ++Pos;
      continue;
    }
    size_t Total = HeaderBytes + static_cast<size_t>(Len) + 4;
    if (Buf.size() - Pos < Total)
      break; // frame still in flight
    uint32_t C = crc32(&Buf[Pos + 4], 1);
    C = crc32(Buf.data() + Pos + HeaderBytes, Len, C);
    if (C != readLE32(Buf.data() + Pos + HeaderBytes + Len)) {
      ++CrcErrors;
      ++Pos;
      continue;
    }
    Out.Type = Type;
    Out.Payload.assign(Buf.begin() + Pos + HeaderBytes,
                       Buf.begin() + Pos + HeaderBytes + Len);
    Pos += Total;
    if (Pos == Buf.size() || Pos >= (64u << 10)) {
      Buf.erase(Buf.begin(), Buf.begin() + Pos);
      Pos = 0;
    }
    return true;
  }
  if (Pos) {
    Buf.erase(Buf.begin(), Buf.begin() + Pos);
    Pos = 0;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// SocketTransport
//===----------------------------------------------------------------------===//

namespace {

/// Reads a whole file. \returns false when it cannot be opened/read.
bool readFileImage(const std::string &Path, std::vector<uint8_t> &Out) {
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  if (Size < 0) {
    std::fclose(F);
    return false;
  }
  std::fseek(F, 0, SEEK_SET);
  Out.resize(static_cast<size_t>(Size));
  size_t N = Size ? std::fread(Out.data(), 1, Out.size(), F) : 0;
  std::fclose(F);
  return N == Out.size();
}

} // namespace

SocketTransport::SocketTransport(const ShipperOptions &O) : Opts(O) {
  std::string Err;
  if (!parseShipEndpoint(Opts.Endpoint, Ep, Err)) {
    std::fprintf(stderr, "vyrd: bad ship endpoint: %s\n", Err.c_str());
    Healthy.store(false, std::memory_order_release);
  }
}

SocketTransport::~SocketTransport() { dropConnection(); }

void SocketTransport::dropConnection() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  // A reconnect starts a fresh byte stream; stale half-frames must not
  // poison it.
  Parser = wire::FrameParser();
}

bool SocketTransport::connectOnce() {
  int S = -1;
  if (Ep.IsUnix) {
    S = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (S < 0)
      return false;
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Ep.Path.c_str(), sizeof(Addr.sun_path) - 1);
    if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
      ::close(S);
      return false;
    }
  } else {
    addrinfo Hints;
    std::memset(&Hints, 0, sizeof(Hints));
    Hints.ai_family = AF_UNSPEC;
    Hints.ai_socktype = SOCK_STREAM;
    addrinfo *Res = nullptr;
    if (::getaddrinfo(Ep.Host.c_str(), std::to_string(Ep.Port).c_str(),
                      &Hints, &Res) != 0)
      return false;
    for (addrinfo *AI = Res; AI; AI = AI->ai_next) {
      S = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
      if (S < 0)
        continue;
      if (::connect(S, AI->ai_addr, AI->ai_addrlen) == 0)
        break;
      ::close(S);
      S = -1;
    }
    ::freeaddrinfo(Res);
    if (S < 0)
      return false;
  }
  Fd = S;
  // (Re-)open the session. On a resume the receiver recognizes the
  // stream name, skips already-fed records and re-acks its watermark.
  ByteWriter W;
  W.str(Opts.StreamName.empty() ? "stream" : Opts.StreamName);
  W.str(Opts.Program);
  W.u8(Opts.ViewLevel ? 1 : 0);
  std::string Out;
  wire::appendFrame(Out, wire::FT_Hello, W.buffer().data(), W.size());
  if (!sendAll(Out)) {
    dropConnection();
    return false;
  }
  return true;
}

bool SocketTransport::ensureConnected() {
  return Fd >= 0 || connectOnce();
}

bool SocketTransport::sendAll(const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

void SocketTransport::handleFrame(const wire::Frame &F) {
  if (F.Type != wire::FT_WatermarkAck)
    return;
  ByteReader R(F.Payload.data(), F.Payload.size());
  uint64_t W = R.varint();
  if (!R.ok())
    return;
  if (W > Acked.load(std::memory_order_acquire))
    Acked.store(W, std::memory_order_release);
  std::lock_guard Lock(M);
  ++St.Acks;
}

void SocketTransport::drainAcks() {
  if (Fd < 0)
    return;
  uint8_t Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      Parser.feed(Buf, static_cast<size_t>(N));
      wire::Frame F;
      while (Parser.next(F))
        handleFrame(F);
      continue;
    }
    if (N == 0) {
      dropConnection(); // peer closed
      return;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    dropConnection();
    return;
  }
}

void SocketTransport::backoffSleep(unsigned Attempt) {
  uint64_t Ms = Opts.BackoffInitialMs ? Opts.BackoffInitialMs : 1;
  for (unsigned I = 1; I < Attempt; ++I) {
    Ms *= 2;
    if (Ms >= Opts.BackoffCapMs)
      break;
  }
  if (Opts.BackoffCapMs && Ms > Opts.BackoffCapMs)
    Ms = Opts.BackoffCapMs;
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

bool SocketTransport::sendSegmentOnce(const ShipSegmentInfo &Seg,
                                      uint64_t &BytesOut) {
  BytesOut = 0;
  // The sidecar travels first so a receiver picking the chain up
  // mid-stream can seed its checkers before the segment's records.
  if (!Seg.SnapPath.empty()) {
    std::vector<uint8_t> Snap;
    if (readFileImage(Seg.SnapPath, Snap)) {
      ByteWriter W;
      W.varint(Seg.Index);
      W.bytes(Snap.data(), Snap.size());
      std::string Out;
      wire::appendFrame(Out, wire::FT_Snapshot, W.buffer().data(), W.size());
      if (!sendAll(Out))
        return false;
      BytesOut += Snap.size();
    }
  }
  std::vector<uint8_t> Img;
  if (!readFileImage(Seg.Path, Img))
    return false;
  {
    ByteWriter W;
    W.varint(Seg.Index);
    W.varint(Img.size());
    std::string Out;
    wire::appendFrame(Out, wire::FT_SegmentBegin, W.buffer().data(), W.size());
    if (!sendAll(Out))
      return false;
  }
  for (size_t Off = 0; Off < Img.size(); Off += wire::ChunkBytes) {
    size_t N = std::min(wire::ChunkBytes, Img.size() - Off);
    std::string Out;
    wire::appendFrame(Out, wire::FT_SegmentChunk, Img.data() + Off, N);
    if (!sendAll(Out))
      return false;
  }
  {
    ByteWriter W;
    W.varint(Seg.Index);
    std::string Out;
    wire::appendFrame(Out, wire::FT_SegmentEnd, W.buffer().data(), W.size());
    if (!sendAll(Out))
      return false;
  }
  BytesOut += Img.size();
  return true;
}

bool SocketTransport::shipSegment(const ShipSegmentInfo &Seg) {
  if (!healthy())
    return false;
  unsigned Attempt = 0;
  for (;;) {
    uint64_t Bytes = 0;
    if (ensureConnected() && sendSegmentOnce(Seg, Bytes)) {
      {
        std::lock_guard Lock(M);
        ++St.Segments;
        St.Bytes += Bytes;
      }
      drainAcks();
      return true;
    }
    // A connection that died mid-segment restarts the whole segment:
    // the receiver drops its partial assembly at the next SegmentBegin.
    dropConnection();
    if (Attempt >= Opts.MaxRetries)
      break;
    ++Attempt;
    {
      std::lock_guard Lock(M);
      ++St.Retries;
    }
    backoffSleep(Attempt);
  }
  Healthy.store(false, std::memory_order_release);
  return false;
}

bool SocketTransport::shipClose(uint64_t FinalSeqExclusive,
                                unsigned TimeoutMs) {
  if (!healthy())
    return false;
  ByteWriter W;
  W.varint(FinalSeqExclusive);
  std::string Out;
  wire::appendFrame(Out, wire::FT_Close, W.buffer().data(), W.size());
  unsigned Attempt = 0;
  for (;;) {
    if (ensureConnected() && sendAll(Out))
      break;
    dropConnection();
    if (Attempt >= Opts.MaxRetries) {
      Healthy.store(false, std::memory_order_release);
      return false;
    }
    ++Attempt;
    {
      std::lock_guard Lock(M);
      ++St.Retries;
    }
    backoffSleep(Attempt);
  }
  if (!waitForAck(FinalSeqExclusive, TimeoutMs)) {
    Healthy.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

bool SocketTransport::waitForAck(uint64_t Target, unsigned TimeoutMs) {
  uint64_t Deadline =
      telemetryNowNanos() + static_cast<uint64_t>(TimeoutMs) * 1000000;
  for (;;) {
    drainAcks();
    if (Acked.load(std::memory_order_acquire) >= Target)
      return true;
    uint64_t Now = telemetryNowNanos();
    if (Now >= Deadline)
      return false;
    uint64_t LeftMs = (Deadline - Now) / 1000000 + 1;
    if (Fd < 0) {
      // Reconnect so the receiver's Hello-resume path re-acks; back off
      // briefly when it refuses.
      if (!connectOnce())
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<uint64_t>(LeftMs, 20)));
      continue;
    }
    pollfd P{Fd, POLLIN, 0};
    ::poll(&P, 1, static_cast<int>(std::min<uint64_t>(LeftMs, 100)));
  }
}

SocketTransport::Stats SocketTransport::stats() const {
  std::lock_guard Lock(M);
  return St;
}

//===----------------------------------------------------------------------===//
// SegmentShipper / shipChain
//===----------------------------------------------------------------------===//

SegmentShipper::SegmentShipper(SocketTransport &T, const std::string &Base,
                               Telemetry *Telem)
    : T(T), Base(Base), Telem(Telem) {}

void SegmentShipper::shipIndex(uint64_t Index) {
  ShipSegmentInfo Info;
  Info.Index = Index;
  Info.Path = logSegmentPath(Base, Index);
  std::string Snap = snapshotSidecarPath(Base, Index);
  struct stat Sb;
  if (::stat(Snap.c_str(), &Sb) == 0)
    Info.SnapPath = std::move(Snap);
  if (T.shipSegment(Info))
    ++Shipped;
}

void SegmentShipper::noteCut(uint64_t CutIndex) {
  if (CutIndex <= OpenIndex)
    return;
  if (Telem)
    Telem->gaugeSet(Gauge::G_ShipUnshippedSegments, CutIndex - OpenIndex);
  while (OpenIndex < CutIndex) {
    if (!T.healthy())
      return; // degrade path owns the surviving chain from here
    shipIndex(OpenIndex);
    ++OpenIndex;
    if (Telem)
      Telem->gaugeSet(Gauge::G_ShipUnshippedSegments, CutIndex - OpenIndex);
  }
}

bool SegmentShipper::finish(uint64_t FinalSeqExclusive, unsigned TimeoutMs) {
  if (!T.healthy())
    return false;
  // The log is closed, so the segment that was still open at the last
  // cut is complete on disk now.
  shipIndex(OpenIndex);
  if (Telem)
    Telem->gaugeSet(Gauge::G_ShipUnshippedSegments, 0);
  if (!T.healthy())
    return false;
  return T.shipClose(FinalSeqExclusive, TimeoutMs);
}

bool vyrd::shipChain(const std::string &Base, SocketTransport &T,
                     uint64_t FinalSeqExclusive, unsigned CloseTimeoutMs,
                     std::string &Err) {
  std::vector<ChainSegment> Chain;
  if (!enumerateChain(Base, Chain)) {
    Err = "no log chain found at " + Base;
    return false;
  }
  for (const ChainSegment &C : Chain) {
    ShipSegmentInfo Info;
    Info.Index = C.Index;
    Info.Path = C.Path;
    if (C.HasSnapshot)
      Info.SnapPath = snapshotSidecarPath(Base, C.Index);
    if (!T.shipSegment(Info)) {
      Err = "shipping " + C.Path + " failed";
      return false;
    }
  }
  if (!T.shipClose(FinalSeqExclusive, CloseTimeoutMs)) {
    Err = "close/final ack failed";
    return false;
  }
  return true;
}
