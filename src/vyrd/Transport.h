//===- Transport.h - Shipping closed log segments across processes -*- C++ -*-===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport layer between the producer half of a verification
/// pipeline (hooks -> log backend -> segment sink) and its checker half
/// (CheckerService): docs/SHIPPING.md. The segmented chain (LOGFORMAT v4)
/// already makes every closed segment a self-contained unit — its own
/// header and name table — and v5 sidecars let a checker pick a chain up
/// cold; a SocketTransport moves those files to a CheckerService in
/// another process and carries the checker's watermark acks back so the
/// producer can reclaim its checked prefix. Two shapes:
///
///  * The *inline* composition — the historical single-process Verifier —
///    is the degenerate transport: pump and checkers share an address
///    space, records flow by reference, no framing. It is not represented
///    by a transport object (that would add a copy to a path whose
///    behavior must stay bit-identical); Verifier wires the halves
///    directly. A recorded chain re-checked in this process (epochCheck,
///    the shipping degrade path) is read by CheckerService::feedLog.
///  * SocketTransport frames segment files (plus .snap sidecars) over a
///    unix or TCP socket to a `vyrd-checkd` service, with CRC-protected
///    length-framed chunks, capped-exponential-backoff reconnects, and an
///    ack reader that publishes the remote watermark.
///
/// Wire protocol (`namespace wire`): every frame is
///
///   magic "VYRF" | type u8 | payload length u32 LE | payload | crc32 u32 LE
///
/// where the CRC covers type + payload. The receiver's FrameParser
/// resynchronizes at the next magic after a CRC mismatch or garbage, so a
/// truncated transfer costs one segment, not the stream.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_TRANSPORT_H
#define VYRD_TRANSPORT_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace vyrd {

class Telemetry;

/// Producer-side shipping configuration (VerifierConfig::Shipping).
struct ShipperOptions {
  /// Where the checker fleet listens: "unix:<path>" or "tcp:<host>:<port>".
  /// Empty disables shipping entirely (the inline pipeline, bit-identical
  /// to previous releases).
  std::string Endpoint;
  /// Session name registered at the service's monitor registry
  /// (`vyrd-mon ... list` / `mon <name>`); defaults to "stream" when
  /// empty.
  std::string StreamName;
  /// Pipeline key the remote side resolves specs/replayers with (program
  /// names from the harness: "multiset", "queue", ..., "composite").
  /// Required when shipping: the checker cannot rebuild the pipelines
  /// from the records alone.
  std::string Program;
  /// View-level refinement on the remote checkers (CM_ViewRefinement)
  /// instead of I/O refinement.
  bool ViewLevel = false;
  /// Connect/send attempts per segment before the transport declares
  /// itself unhealthy and the degrade path takes over.
  unsigned MaxRetries = 5;
  /// Exponential backoff between retries: Initial, 2*Initial, ... capped
  /// at BackoffCapMs.
  unsigned BackoffInitialMs = 10;
  unsigned BackoffCapMs = 2000;
  /// How long finish() waits for the remote ack of the final watermark
  /// after the Close frame before degrading.
  unsigned FinalAckTimeoutMs = 10000;

  bool enabled() const { return !Endpoint.empty(); }
};

/// A parsed ShipperOptions::Endpoint.
struct ShipEndpoint {
  bool IsUnix = true;
  std::string Path; ///< unix socket path (IsUnix)
  std::string Host; ///< tcp host (!IsUnix)
  uint16_t Port = 0;
};

/// Parses "unix:<path>" / "tcp:<host>:<port>". \returns false with a
/// one-line description in \p Err on a malformed spec (unknown scheme,
/// empty path, bad port, unix path too long for sockaddr_un).
bool parseShipEndpoint(const std::string &Spec, ShipEndpoint &Out,
                       std::string &Err);

/// Longest usable unix socket path (sizeof(sockaddr_un::sun_path) - 1,
/// the NUL-terminated bind limit). VerifierConfig::validate() checks
/// monitor and shipping paths against it so a too-long path fails with a
/// clear error instead of a silently truncated bind.
size_t maxUnixSocketPathLen();

namespace wire {

/// Magic opening every frame ("VYRD Frame").
constexpr uint8_t FrameMagic[4] = {'V', 'Y', 'R', 'F'};

/// Frame types. Payloads are varint/str encoded with ByteWriter (the
/// log's own primitives); docs/SHIPPING.md has the field tables.
enum FrameType : uint8_t {
  /// Session open: str stream name, str program, u8 view-level. Re-sent
  /// after a reconnect; the receiver treats a known name as a resume,
  /// deduplicates already-fed segments and re-acks its watermark.
  FT_Hello = 1,
  /// varint segment index, varint total encoded bytes. Starts a segment
  /// transfer; any partially assembled previous segment is dropped.
  FT_SegmentBegin = 2,
  /// One chunk of the segment image (raw bytes, no inner encoding).
  FT_SegmentChunk = 3,
  /// varint segment index. The receiver verifies the assembled size,
  /// decodes and feeds the segment, then acks its fed watermark.
  FT_SegmentEnd = 4,
  /// varint segment index, then the raw .snap sidecar image. Sent before
  /// the segment it pairs with; seeds a cold pickup mid-chain.
  FT_Snapshot = 5,
  /// varint watermark (exclusive). Receiver -> producer: every record
  /// with Seq below it has been fed to its checker.
  FT_WatermarkAck = 6,
  /// varint final sequence count. No more segments; the receiver
  /// finishes its checkers, writes the session report and acks once
  /// more.
  FT_Close = 7,
};

/// Sanity bound on one frame's payload (a segment chunk is at most
/// ChunkBytes, well below this; anything larger is stream corruption).
constexpr size_t MaxFramePayload = 64u << 20;

/// Segment images are sliced into chunks of at most this many bytes, so
/// a truncated transfer is detected at frame granularity.
constexpr size_t ChunkBytes = 256u << 10;

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
uint32_t crc32(const void *Data, size_t Len, uint32_t Seed = 0);

/// Appends one framed message to \p Out.
void appendFrame(std::string &Out, uint8_t Type, const void *Payload,
                 size_t Len);

/// One parsed frame.
struct Frame {
  uint8_t Type = 0;
  std::vector<uint8_t> Payload;
};

/// Incremental frame assembler with resync. feed() bytes as they arrive,
/// then drain next() until it returns false. A frame whose CRC fails (or
/// bytes that are not a frame at all) advance the scan to the next magic
/// occurrence — counted in crcErrors()/resyncs() — so one corrupted or
/// truncated transfer never desynchronizes the rest of the stream.
class FrameParser {
public:
  void feed(const void *Data, size_t Len);
  bool next(Frame &Out);

  uint64_t crcErrors() const { return CrcErrors; }
  uint64_t resyncs() const { return Resyncs; }

private:
  bool scanToMagic();

  std::vector<uint8_t> Buf;
  size_t Pos = 0;
  uint64_t CrcErrors = 0;
  uint64_t Resyncs = 0;
};

} // namespace wire

/// One closed segment, ready to ship: its chain position and on-disk
/// image (plus the optional .snap sidecar recorded next to it).
struct ShipSegmentInfo {
  uint64_t Index = 0;    ///< 1-based chain index
  std::string Path;      ///< segment file
  std::string SnapPath;  ///< sidecar path, "" when none exists
};

/// Moves closed segments over a unix/TCP socket to a vyrd-checkd service
/// and reports the checker's progress back. Owns the connection
/// (established lazily, re-established with capped exponential backoff,
/// Hello re-sent after every reconnect). Acks are drained
/// opportunistically after every send and waited on in waitForAck — the
/// shipping pump is the transport's only driver, so no reader thread is
/// needed. Driven from one shipper thread (shipSegment/shipClose are not
/// thread-safe); ackedWatermark/healthy/stats are safe from any thread.
class SocketTransport {
public:
  /// \p O must carry a parseable Endpoint (validate() guarantees it when
  /// reached through a Verifier).
  explicit SocketTransport(const ShipperOptions &O);
  ~SocketTransport();

  /// Ships one closed segment (and its sidecar when present). \returns
  /// false when the segment could not be delivered within the retry
  /// budget — the transport is unhealthy from then on.
  bool shipSegment(const ShipSegmentInfo &Seg);

  /// Ends the stream: the checker finishes, acks \p FinalSeqExclusive
  /// and writes its report. \returns false when the close could not be
  /// delivered or the final ack did not arrive in time.
  bool shipClose(uint64_t FinalSeqExclusive, unsigned TimeoutMs);

  /// The checker-side watermark (exclusive): every record below it has
  /// been fed remotely. Monotone; drives BufferedLog::reclaimCheckedPrefix
  /// on the producer.
  uint64_t ackedWatermark() const {
    return Acked.load(std::memory_order_acquire);
  }

  /// False once delivery failed past the retry budget.
  bool healthy() const { return Healthy.load(std::memory_order_acquire); }

  /// Delivery accounting (exact, transport-side; the telemetry hub pulls
  /// it as ship_segments / ship_bytes / ship_acks / ship_retries).
  struct Stats {
    uint64_t Segments = 0;
    uint64_t Bytes = 0;
    uint64_t Acks = 0;
    uint64_t Retries = 0;
  };
  Stats stats() const;

  /// Acks observed so far / a bounded wait for the watermark to reach
  /// \p Target (finish uses it for the final ack, an idle pump for the
  /// acks of what it shipped).
  bool waitForAck(uint64_t Target, unsigned TimeoutMs);

private:
  bool connectOnce();
  bool ensureConnected();
  bool sendAll(const std::string &Bytes);
  bool sendSegmentOnce(const ShipSegmentInfo &Seg, uint64_t &BytesOut);
  void dropConnection();
  void drainAcks();
  void handleFrame(const wire::Frame &F);
  void backoffSleep(unsigned Attempt);

  ShipperOptions Opts;
  ShipEndpoint Ep;

  int Fd = -1; ///< owned by the shipping pump thread
  wire::FrameParser Parser;

  std::atomic<uint64_t> Acked{0};
  std::atomic<bool> Healthy{true};

  mutable std::mutex M; ///< guards St (stats() may race the pump)
  Stats St;
};

/// The producer side's shipping pump state: translates segment cuts
/// (SegmentSink rotations) into shipSegment calls on its transport.
/// Single-threaded — the Verifier's ship pump owns it — because cut
/// order is chain order and segments must ship in chain order.
class SegmentShipper {
public:
  /// \p Base is the chain base path (VerifierConfig::LogFilePath).
  SegmentShipper(SocketTransport &T, const std::string &Base,
                 Telemetry *Telem);

  /// A rotation into segment \p CutIndex happened: segment CutIndex - 1
  /// is closed and complete on disk — ship it. No-op once the transport
  /// is unhealthy (the degrade path owns the chain then).
  void noteCut(uint64_t CutIndex);

  /// The log is closed: ships the final (still-unshipped) segment, sends
  /// Close with \p FinalSeqExclusive and waits for the final ack.
  /// \returns true when the remote confirmed the whole stream.
  bool finish(uint64_t FinalSeqExclusive, unsigned TimeoutMs);

  /// Segments handed to the transport so far.
  uint64_t segmentsShipped() const { return Shipped; }

private:
  void shipIndex(uint64_t Index);

  SocketTransport &T;
  std::string Base;
  Telemetry *Telem;
  /// The currently open (active, unshippable) segment's index.
  uint64_t OpenIndex = 1;
  uint64_t Shipped = 0;
};

/// Ships an already-recorded chain (base path of a segmented log, with
/// whatever .snap sidecars exist next to it) through \p T: every live
/// segment oldest-first, then Close with \p FinalSeqExclusive. The
/// offline counterpart of a live shipping Verifier; tests and tools use
/// it to re-ship a surviving chain. \returns false when enumeration or
/// any ship step failed (\p Err says which).
bool shipChain(const std::string &Base, SocketTransport &T,
               uint64_t FinalSeqExclusive, unsigned CloseTimeoutMs,
               std::string &Err);

} // namespace vyrd

#endif // VYRD_TRANSPORT_H
