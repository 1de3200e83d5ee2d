//===- vyrd-mon.cpp - Attach to a live verifier's monitor endpoint --------===//
//
// Part of the VYRD reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Client for the MonitorServer endpoint (docs/OBSERVABILITY.md, "Live
// monitoring"): connects to the unix-domain socket a running verifier
// exposes via VerifierConfig::Monitor.SocketPath, and either takes a
// one-shot reading or keeps a top-style periodic view attached.
//
//   vyrd-mon --socket PATH [command] [options]
//
//   commands (default: top)
//     top           full-screen periodic view, refreshed every --interval
//     watch [MS]    stream one stats JSON line per interval (server-paced)
//     list          one JSON line: registered objects + per-object counters
//     stats         one JSON line: full telemetry snapshot + health
//     violations    one JSON line: violations published so far
//     health        one JSON line: {"health":"ok|stalled|violating"}
//
//   options
//     --mon NAME    registry mode (a vyrd-checkd control socket): attach
//                   to session NAME before running the command; without
//                   it, `list` on a registry socket names the sessions
//     --json        alias for `stats` (one-shot machine-readable dump)
//     --prom        Prometheus text exposition dump (for scrapers)
//     --interval MS top refresh / watch period (default 1000)
//     --count N     exit after N frames/lines (0 = run until killed);
//                   defaults to 1 for watch-style runs piped to scripts
//     --wait MS     retry the connect for up to MS (a monitor that is
//                   still starting up); default: fail immediately
//
// Detaching (exit, Ctrl-C, kill) costs the verifier nothing: the server
// reaps the connection on its next poll round. Exit status: 0 on success,
// 1 on connection/protocol failure, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "ParseArgs.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH "
               "[top|watch|list|stats|violations|health] [--mon NAME] "
               "[--json] [--prom] [--interval MS] [--count N] [--wait MS]\n",
               Argv0);
  return 2;
}

void sleepMs(uint64_t Ms) {
  timespec TS{static_cast<time_t>(Ms / 1000),
              static_cast<long>((Ms % 1000) * 1000000)};
  nanosleep(&TS, nullptr);
}

/// Connects to the unix socket, retrying for up to \p WaitMs.
int connectTo(const std::string &Path, uint64_t WaitMs) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "vyrd-mon: socket path too long: %s\n",
                 Path.c_str());
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  for (uint64_t Waited = 0;; Waited += 50) {
    int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      break;
    if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      return Fd;
    close(Fd);
    if (Waited >= WaitMs)
      break;
    sleepMs(50);
  }
  std::fprintf(stderr, "vyrd-mon: cannot connect to %s: %s\n",
               Path.c_str(), std::strerror(errno));
  return -1;
}

/// Line-buffered reads from the socket. \returns false on EOF/error.
struct LineReader {
  int Fd;
  std::string Buf;

  bool next(std::string &Line) {
    for (;;) {
      size_t Pos = Buf.find('\n');
      if (Pos != std::string::npos) {
        Line = Buf.substr(0, Pos);
        Buf.erase(0, Pos + 1);
        return true;
      }
      char Chunk[4096];
      ssize_t N = read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }
};

bool sendLine(int Fd, const std::string &Cmd) {
  std::string Line = Cmd + "\n";
  return write(Fd, Line.data(), Line.size()) ==
         static_cast<ssize_t>(Line.size());
}

/// One-shot JSON command: send, print the single response line.
int oneJsonLine(int Fd, LineReader &R, const std::string &Cmd) {
  if (!sendLine(Fd, Cmd))
    return 1;
  std::string Line;
  if (!R.next(Line)) {
    std::fprintf(stderr, "vyrd-mon: server closed the connection\n");
    return 1;
  }
  std::printf("%s\n", Line.c_str());
  return 0;
}

/// Reads one `# EOF`-terminated block, printing its lines.
int printBlock(LineReader &R) {
  std::string Line;
  while (R.next(Line)) {
    if (Line == "# EOF")
      return 0;
    std::printf("%s\n", Line.c_str());
  }
  std::fprintf(stderr, "vyrd-mon: server closed the connection\n");
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  std::string MonName;
  std::string Cmd;
  uint64_t IntervalMs = 1000;
  uint64_t Count = 0;
  bool CountSet = false;
  uint64_t WaitMs = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--socket" && I + 1 < Argc) {
      SocketPath = Argv[++I];
    } else if (Arg == "--mon" && I + 1 < Argc) {
      MonName = Argv[++I];
    } else if (Arg == "--interval" && I + 1 < Argc) {
      if (!vyrd::tools::parseUnsigned(Argv[++I], IntervalMs))
        return usage(Argv[0]);
    } else if (Arg == "--count" && I + 1 < Argc) {
      if (!vyrd::tools::parseUnsigned(Argv[++I], Count))
        return usage(Argv[0]);
      CountSet = true;
    } else if (Arg == "--wait" && I + 1 < Argc) {
      if (!vyrd::tools::parseUnsigned(Argv[++I], WaitMs))
        return usage(Argv[0]);
    } else if (Arg == "--json") {
      Cmd = "stats";
    } else if (Arg == "--prom") {
      Cmd = "prom";
    } else if (!Arg.empty() && Arg[0] != '-' && Cmd.empty()) {
      Cmd = Arg;
    } else {
      return usage(Argv[0]);
    }
  }
  if (SocketPath.empty())
    return usage(Argv[0]);
  if (Cmd.empty())
    Cmd = "top";
  if (Cmd != "top" && Cmd != "watch" && Cmd != "list" && Cmd != "stats" &&
      Cmd != "violations" && Cmd != "health" && Cmd != "prom")
    return usage(Argv[0]);

  int Fd = connectTo(SocketPath, WaitMs);
  if (Fd < 0)
    return 1;
  LineReader R{Fd, {}};
  int Ret = 0;

  if (!MonName.empty()) {
    // Registry socket (vyrd-checkd): bind this connection to a session.
    std::string Line;
    if (!sendLine(Fd, "mon " + MonName) || !R.next(Line)) {
      std::fprintf(stderr, "vyrd-mon: server closed the connection\n");
      close(Fd);
      return 1;
    }
    if (Line.find("\"error\"") != std::string::npos) {
      std::fprintf(stderr, "vyrd-mon: %s\n", Line.c_str());
      close(Fd);
      return 1;
    }
  }

  if (Cmd == "list" || Cmd == "stats" || Cmd == "violations" ||
      Cmd == "health") {
    Ret = oneJsonLine(Fd, R, Cmd);
  } else if (Cmd == "prom") {
    Ret = sendLine(Fd, "prom") ? printBlock(R) : 1;
  } else if (Cmd == "watch") {
    // Server-paced stream: one stats JSON line per interval. Scripts get
    // one line by default; --count 0 streams until killed.
    if (!CountSet)
      Count = 1;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "watch %llu",
                  static_cast<unsigned long long>(IntervalMs));
    if (!sendLine(Fd, Buf)) {
      Ret = 1;
    } else {
      std::string Line;
      for (uint64_t N = 0; (!Count || N < Count) && Ret == 0; ++N) {
        if (!R.next(Line)) {
          Ret = N ? 0 : 1; // EOF mid-stream after output is fine
          break;
        }
        std::printf("%s\n", Line.c_str());
        std::fflush(stdout);
      }
    }
  } else { // top
    bool Tty = isatty(STDOUT_FILENO);
    for (uint64_t N = 0; !Count || N < Count; ++N) {
      if (N)
        sleepMs(IntervalMs);
      if (!sendLine(Fd, "top")) {
        Ret = 1;
        break;
      }
      if (Tty)
        std::printf("\x1b[H\x1b[2J"); // home + clear, like top(1)
      if ((Ret = printBlock(R)) != 0)
        break;
      std::fflush(stdout);
    }
  }
  sendLine(Fd, "detach");
  close(Fd);
  return Ret;
}
