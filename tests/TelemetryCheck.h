//===- TelemetryCheck.h - Pulled-metric assertions and a monitor client ---===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the tests that hold the telemetry hub to the pipeline's
/// own counts: the hub pulls appends, blocked admissions, segments,
/// shipping and the per-object counts from the stages that own them, so
/// a report's snapshot must equal the report field for field, and a live
/// `stats` line read through the monitor socket must be consistent per
/// object.
///
//===----------------------------------------------------------------------===//

#ifndef VYRD_TESTS_TELEMETRYCHECK_H
#define VYRD_TESTS_TELEMETRYCHECK_H

#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace vyrd {
namespace test {

/// Every pulled metric in \p R's telemetry snapshot equals the report
/// field its owner keeps.
inline void expectTelemetryMatchesReport(const VerifierReport &R) {
  ASSERT_TRUE(R.TelemetryEnabled);
  const TelemetrySnapshot &S = R.Telemetry;
  EXPECT_EQ(S.counter(Counter::C_LogAppends), R.LogRecords);
  EXPECT_EQ(S.counter(Counter::C_BlockedAppends),
            R.Backpressure.BlockedAppends);
  EXPECT_EQ(S.counter(Counter::C_BlockedNs), R.Backpressure.BlockedNanos);
  EXPECT_EQ(S.counter(Counter::C_SegmentsCreated),
            R.Backpressure.SegmentsCreated);
  EXPECT_EQ(S.counter(Counter::C_SegmentsReclaimed),
            R.Backpressure.SegmentsReclaimed);
  EXPECT_EQ(S.gauge(Gauge::G_SegmentsLive),
            R.Backpressure.SegmentsCreated - R.Backpressure.SegmentsReclaimed);
  EXPECT_EQ(S.gaugeHwm(Gauge::G_SegmentsLive),
            R.Backpressure.SegmentsLiveHwm);
  uint64_t Fed = 0;
  ASSERT_EQ(S.Objects.size(), R.Objects.size());
  for (size_t I = 0; I < R.Objects.size(); ++I) {
    const ObjectTelemetry &OT = S.Objects[I];
    EXPECT_EQ(OT.Name, R.Objects[I].Name);
    EXPECT_EQ(OT.Routed, R.Objects[I].Records) << OT.Name;
    EXPECT_EQ(OT.Checked, R.Objects[I].Stats.ActionsFed) << OT.Name;
    EXPECT_EQ(OT.Backlog, 0u) << "fully drained at finish: " << OT.Name;
    Fed += R.Objects[I].Stats.ActionsFed;
  }
  EXPECT_EQ(S.counter(Counter::C_CheckerActions), Fed);
  if (R.Shipping.Enabled) {
    EXPECT_EQ(S.counter(Counter::C_ShipSegments),
              R.Shipping.SegmentsShipped);
    EXPECT_EQ(S.counter(Counter::C_ShipBytes), R.Shipping.BytesShipped);
    EXPECT_EQ(S.counter(Counter::C_ShipAcks), R.Shipping.Acks);
    EXPECT_EQ(S.counter(Counter::C_ShipRetries), R.Shipping.Retries);
    EXPECT_EQ(S.gauge(Gauge::G_ShipAckedWatermark),
              R.Shipping.AckedWatermark);
  }
}

/// The number after the first `"Key":` in \p Json (0 when absent).
inline uint64_t jsonCount(const std::string &Json, const std::string &Key) {
  size_t Pos = Json.find("\"" + Key + "\":");
  uint64_t V = 0;
  if (Pos != std::string::npos)
    std::sscanf(Json.c_str() + Pos + Key.size() + 3, "%" SCNu64, &V);
  return V;
}

/// Every per-object {routed, checked, backlog} triple in a telemetry
/// JSON rendering, in object order.
inline std::vector<std::array<uint64_t, 3>>
objectCounts(const std::string &Json) {
  std::vector<std::array<uint64_t, 3>> Out;
  const char *Needle = "{\"routed\":";
  for (size_t Pos = Json.find(Needle); Pos != std::string::npos;
       Pos = Json.find(Needle, Pos + 1)) {
    std::array<uint64_t, 3> T{};
    if (std::sscanf(Json.c_str() + Pos,
                    "{\"routed\":%" SCNu64 ",\"checked\":%" SCNu64
                    ",\"backlog\":%" SCNu64,
                    &T[0], &T[1], &T[2]) == 3)
      Out.push_back(T);
  }
  return Out;
}

/// A socket path short enough for sun_path (TempDir can be long, so
/// sockets live directly in /tmp).
inline std::string tempSocketPath(const char *Tag) {
  return "/tmp/vyrd-" + std::string(Tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// Minimal blocking client for the monitor socket.
struct MonClient {
  int Fd = -1;
  std::string Buf;

  explicit MonClient(const std::string &Path) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    // The server binds before the constructor returns, but the listen
    // backlog can overflow transiently under the multi-client tests;
    // retry briefly instead of flaking.
    for (int I = 0; I < 100; ++I) {
      Fd = socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd < 0)
        break;
      if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
        return;
      close(Fd);
      Fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~MonClient() {
    if (Fd >= 0)
      close(Fd);
  }

  bool send(const std::string &Cmd) {
    std::string Line = Cmd + "\n";
    return write(Fd, Line.data(), Line.size()) ==
           static_cast<ssize_t>(Line.size());
  }

  /// Reads one '\n'-terminated line (blocking). Empty on EOF.
  std::string readLine() {
    for (;;) {
      size_t Pos = Buf.find('\n');
      if (Pos != std::string::npos) {
        std::string Line = Buf.substr(0, Pos);
        Buf.erase(0, Pos + 1);
        return Line;
      }
      char Chunk[4096];
      ssize_t N = read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return "";
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// Reads lines until the `# EOF` terminator; returns the block.
  std::string readBlock() {
    std::string Out;
    for (;;) {
      std::string Line = readLine();
      if (Line.empty() || Line == "# EOF")
        return Out;
      Out += Line + "\n";
    }
  }
};

} // namespace test
} // namespace vyrd

#endif // VYRD_TESTS_TELEMETRYCHECK_H
