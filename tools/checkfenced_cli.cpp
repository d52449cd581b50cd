//===--- checkfenced_cli.cpp - the verification daemon ------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Usage:
//   checkfenced [--port N] [--bind ADDR] [--shards N] [--jobs N]
//               [--queue-depth N] [--cache PATH] [--max-request-seconds S]
//               [--log-level LEVEL] [--slow-request-seconds S]
//
// Runs the long-lived verification server (see docs/SERVER.md). Clients
// talk JSON-RPC over HTTP POST /rpc - the `checkfence --remote URL`
// client mode drives it transparently - and scrape GET /metrics
// (Prometheus) or GET /status (JSON). SIGTERM/SIGINT begin a graceful
// drain: stop accepting, finish queued and in-flight requests, persist
// the result cache, exit 0.
//
//===----------------------------------------------------------------------===//

#include "checkfence/Server.h"
#include "checkfence/checkfence.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>

using namespace checkfence;

namespace {

constexpr int ExitUsage = 64;

void usage() {
  std::printf(
      "usage: checkfenced [options]\n"
      "  --port N                 listen port (default 8417, 0 = ephemeral)\n"
      "  --bind ADDR              bind address (default 127.0.0.1)\n"
      "  --shards N               worker threads = max in-flight requests\n"
      "                           (default 2); all workers take requests\n"
      "                           from one FIFO queue and share one\n"
      "                           Verifier and its result cache\n"
      "  --jobs N                 threads each request may fan out to\n"
      "                           (default 1)\n"
      "  --queue-depth N          queued requests beyond this are rejected\n"
      "                           with HTTP 429 + Retry-After (default 64)\n"
      "  --cache PATH             persist the result cache at PATH\n"
      "                           (merge-on-load, atomic multi-process-safe\n"
      "                           save)\n"
      "  --max-request-seconds S  hard per-request deadline (default: none)\n"
      "  --log-level LEVEL        structured-log verbosity on stderr:\n"
      "                           debug | info | warn | error | off\n"
      "                           (default warn; see docs/OBSERVABILITY.md)\n"
      "  --slow-request-seconds S warn-log requests slower than S seconds\n"
      "                           (default 10, 0 = never)\n"
      "  --version                print the library version\n"
      "endpoints: POST /rpc (JSON-RPC 2.0), GET /metrics, GET /status\n"
      "SIGTERM/SIGINT drain gracefully and exit 0.\n");
}

// Signal handlers may only touch lock-free atomics; the main loop polls
// this flag and performs the actual (lock-taking) drain.
volatile std::sig_atomic_t StopFlag = 0;

void onSignal(int) { StopFlag = 1; }

} // namespace

int main(int argc, char **argv) {
  ServerConfig Cfg;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing argument after %s\n", A.c_str());
        exit(ExitUsage);
      }
      return argv[++I];
    };
    if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (A == "--version") {
      std::printf("checkfenced %s\n", versionString());
      return 0;
    } else if (A == "--port") {
      Cfg.Port = std::atoi(Next());
    } else if (A == "--bind") {
      Cfg.BindAddress = Next();
    } else if (A == "--shards") {
      Cfg.Shards = std::atoi(Next());
    } else if (A == "--jobs") {
      Cfg.JobsPerShard = std::atoi(Next());
    } else if (A == "--queue-depth") {
      Cfg.QueueDepth = std::atoi(Next());
    } else if (A == "--cache") {
      Cfg.CachePath = Next();
    } else if (A == "--max-request-seconds") {
      Cfg.MaxRequestSeconds = std::atof(Next());
    } else if (A == "--log-level") {
      Cfg.LogLevel = Next();
    } else if (A == "--slow-request-seconds") {
      Cfg.SlowRequestSeconds = std::atof(Next());
    } else {
      std::fprintf(stderr, "unknown option %s\n", A.c_str());
      return ExitUsage;
    }
  }
  if (Cfg.Port < 0 || Cfg.Port > 65535) {
    std::fprintf(stderr, "bad --port %d\n", Cfg.Port);
    return ExitUsage;
  }

  CheckServer Server(Cfg);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "checkfenced: %s\n", Error.c_str());
    return 1;
  }
  std::printf("checkfenced %s listening on %s:%d (%d workers x %d jobs, "
              "queue %d)\n",
              versionString(), Cfg.BindAddress.c_str(), Server.port(),
              Cfg.Shards < 1 ? 1 : Cfg.Shards,
              Cfg.JobsPerShard < 1 ? 1 : Cfg.JobsPerShard,
              Cfg.QueueDepth);
  std::fflush(stdout);

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  while (!StopFlag)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::printf("checkfenced: draining...\n");
  std::fflush(stdout);
  Server.requestStop();
  Server.waitStopped();
  ServerStats S = Server.stats();
  std::printf("checkfenced: drained (%llu served, %llu rejected, "
              "%llu cache hits)\n",
              S.Served, S.Rejected,
              static_cast<unsigned long long>(S.Cache.Hits));
  return 0;
}
