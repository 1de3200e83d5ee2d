//===- MonitorTest.cpp - Tests for the live monitor endpoint --------------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the monitor renderers (every command's output is well-formed),
/// the unix-socket server (request/response framing, watch pacing,
/// malformed requests, abrupt disconnects), and the end-to-end story:
/// several clients attaching and detaching mid-run while four producer
/// threads and a checker pool hammer the verifier. The concurrent cases
/// are part of the TSan suite — attaching a monitor must not introduce
/// a single race into the pipeline.
///
//===----------------------------------------------------------------------===//

#include "TelemetryCheck.h"
#include "TestUtil.h"
#include "multiset/ArrayMultiset.h"
#include "vyrd/Auto.h"
#include "multiset/MultisetSpec.h"
#include "vyrd/Monitor.h"
#include "vyrd/Verifier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace vyrd;
using namespace vyrd::test;

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

TEST(MonitorTest, RenderersProduceValidJson) {
  Telemetry T;
  T.count(Counter::C_HookRecords, 42);
  T.gaugeAdd(Gauge::G_PendingRecords, 3);
  TelemetrySnapshot S = T.snapshot();

  std::vector<Violation> None;
  EXPECT_TRUE(jsonValid(monitor::listJson(S, None)));
  EXPECT_TRUE(jsonValid(monitor::statsJson(S, None, {})));
  EXPECT_TRUE(jsonValid(monitor::violationsJson(None)));
  EXPECT_TRUE(jsonValid(monitor::healthJson(S, None)));

  Violation V;
  V.Kind = ViolationKind::VK_ViewMismatch;
  V.Seq = 7;
  V.Tid = 2;
  V.Method = internName("Insert");
  V.Message = "quotes \"and\" backslash \\ in message";
  std::vector<Violation> Some{V};
  EXPECT_TRUE(jsonValid(monitor::violationsJson(Some)));
  EXPECT_TRUE(jsonValid(monitor::statsJson(S, Some, {"/tmp/x.json"})));
}

TEST(MonitorTest, HealthVerdictPriorities) {
  Telemetry T;
  TelemetrySnapshot S = T.snapshot();
  EXPECT_STREQ(monitor::healthVerdict(S, 0), "ok");
  EXPECT_STREQ(monitor::healthVerdict(S, 1), "violating");
  S.Stalled = true;
  EXPECT_STREQ(monitor::healthVerdict(S, 0), "stalled");
  // Violations outrank a stalled pipeline.
  EXPECT_STREQ(monitor::healthVerdict(S, 2), "violating");
}

TEST(MonitorTest, PromTextExposesCountersAndGauges) {
  Telemetry::Options O;
  O.Pull = [](TelemetrySnapshot &S) { S.counter(Counter::C_LogAppends) = 11; };
  Telemetry T(std::move(O));
  T.gaugeAdd(Gauge::G_PendingRecords, 4);
  T.record(Histo::H_AppendNs, 100);
  std::string P = monitor::promText(T.snapshot(), /*Violations=*/1);
  EXPECT_NE(P.find("vyrd_log_appends_total 11"), std::string::npos) << P;
  EXPECT_NE(P.find("vyrd_pending_records 4"), std::string::npos) << P;
  EXPECT_NE(P.find("vyrd_pending_records_hwm 4"), std::string::npos) << P;
  EXPECT_NE(P.find("vyrd_violations_total 1"), std::string::npos) << P;
  EXPECT_NE(P.find("_bucket{le=\"+Inf\"}"), std::string::npos) << P;
  // Exposition format: every line is a comment or `name[{labels}] value`.
  EXPECT_EQ(P.back(), '\n');
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

TEST(MonitorTest, ServerAnswersEveryCommand) {
  Telemetry T;
  T.count(Counter::C_HookRecords, 5);
  TelemetryMonitorSource Src(T);
  MonitorOptions MO;
  MO.SocketPath = tempSocketPath("cmds");
  MonitorServer Server(MO, Src);
  ASSERT_TRUE(Server.valid()) << Server.error();

  MonClient C(MO.SocketPath);
  ASSERT_GE(C.Fd, 0);
  for (const char *Cmd : {"list", "stats", "violations", "health"}) {
    ASSERT_TRUE(C.send(Cmd));
    std::string Line = C.readLine();
    EXPECT_TRUE(jsonValid(Line)) << Cmd << " -> " << Line;
    EXPECT_EQ(Line.find("\"error\""), std::string::npos) << Line;
  }
  ASSERT_TRUE(C.send("prom"));
  std::string Block = C.readBlock();
  EXPECT_NE(Block.find("vyrd_hook_records_total 5"), std::string::npos);
  ASSERT_TRUE(C.send("top"));
  Block = C.readBlock();
  EXPECT_NE(Block.find("vyrd:"), std::string::npos) << Block;

  ASSERT_TRUE(C.send("bogus"));
  std::string Err = C.readLine();
  EXPECT_TRUE(jsonValid(Err)) << Err;
  EXPECT_NE(Err.find("\"error\""), std::string::npos) << Err;

  ASSERT_TRUE(C.send("detach"));
  EXPECT_NE(C.readLine().find("\"ok\""), std::string::npos);
  EXPECT_GE(Server.requestsServed(), 7u);
  Server.stop();
  EXPECT_NE(access(MO.SocketPath.c_str(), F_OK), 0)
      << "stop() must unlink the socket";
}

TEST(MonitorTest, WatchStreamsServerPaced) {
  Telemetry T;
  TelemetryMonitorSource Src(T);
  MonitorOptions MO;
  MO.SocketPath = tempSocketPath("watch");
  MonitorServer Server(MO, Src);
  ASSERT_TRUE(Server.valid()) << Server.error();

  MonClient C(MO.SocketPath);
  ASSERT_GE(C.Fd, 0);
  ASSERT_TRUE(C.send("watch 10"));
  for (int I = 0; I < 3; ++I) {
    std::string Line = C.readLine();
    EXPECT_TRUE(jsonValid(Line)) << Line;
    EXPECT_NE(Line.find("\"telemetry\""), std::string::npos) << Line;
  }
}

TEST(MonitorTest, MalformedAndAbruptClientsDoNotWedgeServer) {
  Telemetry T;
  TelemetryMonitorSource Src(T);
  MonitorOptions MO;
  MO.SocketPath = tempSocketPath("abuse");
  MonitorServer Server(MO, Src);
  ASSERT_TRUE(Server.valid()) << Server.error();

  {
    // A "request" larger than the server's line cap, with no newline:
    // the server must drop this client, not buffer forever.
    MonClient Flooder(MO.SocketPath);
    ASSERT_GE(Flooder.Fd, 0);
    std::string Garbage(8192, 'x');
    (void)!write(Flooder.Fd, Garbage.data(), Garbage.size());
    // The server may send one final error line before cutting us off,
    // but the connection must end, not buffer forever.
    std::string Line = Flooder.readLine();
    if (!Line.empty()) {
      EXPECT_NE(Line.find("\"error\""), std::string::npos) << Line;
      Line = Flooder.readLine();
    }
    EXPECT_EQ(Line, "") << "flooder should be disconnected";
  }
  {
    // Abrupt disconnect mid-request (no newline, then close).
    MonClient Rude(MO.SocketPath);
    ASSERT_GE(Rude.Fd, 0);
    (void)!write(Rude.Fd, "sta", 3);
  }
  {
    // Binary garbage and empty lines are answered (or ignored), never
    // crash the thread.
    MonClient Binary(MO.SocketPath);
    ASSERT_GE(Binary.Fd, 0);
    const char Junk[] = "\x01\x02\xff\n\n\x00garbage\n";
    (void)!write(Binary.Fd, Junk, sizeof(Junk) - 1);
    std::string Line = Binary.readLine();
    EXPECT_TRUE(Line.empty() || jsonValid(Line)) << Line;
  }
  // After all the abuse, a well-behaved client still gets served.
  MonClient Polite(MO.SocketPath);
  ASSERT_GE(Polite.Fd, 0);
  ASSERT_TRUE(Polite.send("health"));
  EXPECT_TRUE(jsonValid(Polite.readLine()));
}

TEST(MonitorTest, ServerRefusesUnbindablePath) {
  Telemetry T;
  TelemetryMonitorSource Src(T);
  MonitorOptions MO;
  MO.SocketPath = "/nonexistent-dir/vyrd.sock";
  MonitorServer Server(MO, Src);
  EXPECT_FALSE(Server.valid());
  EXPECT_FALSE(Server.error().empty());
  Server.stop(); // must be safe on an inert server
}

//===----------------------------------------------------------------------===//
// End-to-end through the verifier
//===----------------------------------------------------------------------===//

TEST(MonitorTest, ConfigValidation) {
  VerifierConfig VC;
  VC.Monitor.SocketPath = tempSocketPath("val");
  EXPECT_NE(VC.validate(), "") << "monitor without telemetry must fail";
  VC.Telemetry.Enabled = true;
  EXPECT_EQ(VC.validate(), "");
  VC.Monitor.MaxClients = 0;
  EXPECT_NE(VC.validate(), "");
}

TEST(MonitorTest, MultiClientAttachDetachMidRun) {
  VerifierConfig VC;
  VC.Online = true;
  VC.CheckerThreads = 2;
  VC.Telemetry.Enabled = true;
  VC.Monitor.SocketPath = tempSocketPath("e2e");
  auto V = std::make_unique<Verifier>(
      std::make_unique<multiset::MultisetSpec>(),
      KeyValueReplayer::guardedBag("A"), VC);
  ASSERT_NE(V->monitor(), nullptr);
  ASSERT_TRUE(V->monitor()->valid()) << V->monitor()->error();
  V->start();

  // Four producers hammer the object while monitor clients come and go.
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 64;
  multiset::ArrayMultiset M(MO, V->hooks());
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Producers;
  for (int P = 0; P < 4; ++P)
    Producers.emplace_back([&M, &Stop, P] {
      for (uint64_t I = 0; !Stop.load(std::memory_order_relaxed); ++I) {
        int64_t K = static_cast<int64_t>((I * 4 + P) % 23);
        M.insert(K);
        M.lookUp(K);
        if (I % 3 == 0)
          M.remove(K);
      }
    });

  // Three waves of clients, mixing one-shot commands with short watch
  // streams, all attaching and detaching mid-run.
  for (int Wave = 0; Wave < 3; ++Wave) {
    std::vector<std::thread> Clients;
    for (int I = 0; I < 3; ++I)
      Clients.emplace_back([&VC, I] {
        MonClient C(VC.Monitor.SocketPath);
        ASSERT_GE(C.Fd, 0);
        if (I == 0) {
          ASSERT_TRUE(C.send("watch 5"));
          for (int L = 0; L < 3; ++L)
            EXPECT_TRUE(jsonValid(C.readLine()));
          // ... and vanish without detaching: the server must reap us.
        } else {
          for (const char *Cmd : {"stats", "list", "health"}) {
            ASSERT_TRUE(C.send(Cmd));
            EXPECT_TRUE(jsonValid(C.readLine()));
          }
          C.send("detach");
        }
      });
    for (std::thread &T : Clients)
      T.join();
  }

  Stop.store(true);
  for (std::thread &T : Producers)
    T.join();
  EXPECT_GT(V->monitor()->requestsServed(), 0u);
  VerifierReport R = V->finish();
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(MonitorTest, ListReflectsVerifierObjects) {
  VerifierConfig VC;
  VC.Online = true;
  VC.Telemetry.Enabled = true;
  VC.Monitor.SocketPath = tempSocketPath("list");
  auto V = std::make_unique<Verifier>(VC);
  Hooks H = V->registerObject("multiset",
                              std::make_unique<multiset::MultisetSpec>(),
                              KeyValueReplayer::guardedBag("A"));
  V->start();
  multiset::ArrayMultiset::Options MO;
  MO.Capacity = 16;
  multiset::ArrayMultiset M(MO, H);
  for (int I = 0; I < 50; ++I) {
    M.insert(I % 7);
    M.lookUp(I % 7);
  }

  MonClient C(VC.Monitor.SocketPath);
  ASSERT_GE(C.Fd, 0);
  ASSERT_TRUE(C.send("list"));
  std::string Line = C.readLine();
  EXPECT_TRUE(jsonValid(Line)) << Line;
  EXPECT_NE(Line.find("\"multiset\""), std::string::npos) << Line;
  VerifierReport R = V->finish();
  EXPECT_TRUE(R.ok()) << R.str();
}
