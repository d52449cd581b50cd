//===--- bench_server.cpp - checkfenced round-trip trajectory ----------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The perf-trajectory bench for the verification server: an in-process
// checkfenced on an ephemeral port driven through RemoteVerifier.
//
//  * pure protocol overhead (checkfence.version round trips),
//  * a mixed first pass (check / matrix / analyze) against a cold
//    result cache, then the identical second pass against the warm one,
//  * remote-vs-local timing-free JSON identity on the check set,
//  * concurrent-client throughput over the worker pool.
//
// `--json PATH` writes the shared bench schema (see BenchUtil.h) that
// scripts/bench_compare.py gates CI on. The gated metrics are counts
// and booleans (served totals, cache hits, identity) - wall-clock
// numbers are recorded for the trajectory but not gated, since
// baselines travel across machines. CF_BENCH_FULL=1 widens the check
// grid; CF_BENCH_CLIENTS overrides the concurrent client count
// (default 4).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "checkfence/checkfence.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

using namespace checkfence;

namespace {

double now() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now().time_since_epoch())
      .count();
}

struct Cell {
  const char *Impl;
  const char *Test;
  const char *Model;
};

} // namespace

int main(int argc, char **argv) {
  benchutil::Options Opts;
  if (!benchutil::parseBenchArgs(argc, argv, Opts))
    return 64;

  int Clients = 4;
  if (const char *E = std::getenv("CF_BENCH_CLIENTS"))
    Clients = std::atoi(E) > 0 ? std::atoi(E) : Clients;

  std::vector<Cell> Checks = {{"ms2", "T0", "sc"},
                              {"ms2", "T0", "tso"},
                              {"snark", "D0", "sc"},
                              {"ms2", "Ti2", "sc"}};
  if (benchutil::fullRun()) {
    Checks.push_back({"ms2", "Tpc2", "sc"});
    Checks.push_back({"msn", "T0", "tso"});
    Checks.push_back({"lazylist", "T1", "sc"});
  }

  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.Shards = 2;
  CheckServer Server(Cfg);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "cannot start server: %s\n", Error.c_str());
    return 1;
  }
  std::string Url = "http://127.0.0.1:" + std::to_string(Server.port());

  // -- Protocol overhead: version probes carry no verification work.
  constexpr int Probes = 100;
  RemoteVerifier RV(Url);
  double T0 = now();
  int ProbeFailures = 0;
  for (int I = 0; I < Probes; ++I) {
    std::string Version;
    int Schema = 0;
    if (!RV.version(Version, Schema))
      ++ProbeFailures;
  }
  double ProbeSeconds = now() - T0;

  // -- First pass, cold cache: every check plus one matrix and one
  // analysis, sequentially.
  Verifier Local;
  int Identical = 1, PassFailures = 0;
  T0 = now();
  for (const Cell &C : Checks) {
    Request Req = Request::check(C.Impl, C.Test).model(C.Model);
    Result R;
    if (!RV.check(Req, R)) {
      ++PassFailures;
      continue;
    }
    if (R.json(false) != Local.check(Req).json(false))
      Identical = 0;
  }
  Request MatrixReq = Request::matrix()
                          .impls({"ms2"})
                          .tests({"T0"})
                          .models({"sc", "tso"});
  RemoteReport Matrix;
  if (!RV.matrix(MatrixReq, Matrix) || !Matrix.AllCompleted)
    ++PassFailures;
  Request AnalyzeReq = Request::check("ms2", "T0");
  AnalyzeReq.RequestKind = Request::Kind::Analyze;
  RemoteAnalysis Analysis;
  if (!RV.analyze(AnalyzeReq, Analysis) || !Analysis.Ok)
    ++PassFailures;
  double ColdSeconds = now() - T0;

  // -- Second pass: the identical checks again, now warm. Matrix cells
  // bypass the cache by design, so only the checks are re-run.
  unsigned long long HitsBefore = Server.stats().Cache.Hits;
  int SecondPassFromCache = 0;
  T0 = now();
  for (const Cell &C : Checks) {
    Request Req = Request::check(C.Impl, C.Test).model(C.Model);
    Result R;
    if (RV.check(Req, R) && R.FromCache)
      ++SecondPassFromCache;
  }
  double WarmSeconds = now() - T0;
  unsigned long long SecondPassHits = Server.stats().Cache.Hits - HitsBefore;

  // -- Concurrent clients hammer the warm cache: pure dispatch + wire
  // throughput across the worker pool.
  const int PerClient = benchutil::fullRun() ? 32 : 12;
  std::vector<std::thread> Threads;
  std::atomic<int> ThroughputFailures{0};
  T0 = now();
  for (int I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] {
      RemoteVerifier Client(Url);
      const Cell &C = Checks[I % Checks.size()];
      Request Req = Request::check(C.Impl, C.Test).model(C.Model);
      for (int N = 0; N < PerClient; ++N) {
        Result R;
        if (!Client.check(Req, R))
          ++ThroughputFailures;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double ConcurrentSeconds = now() - T0;
  double Throughput =
      ConcurrentSeconds > 0 ? Clients * PerClient / ConcurrentSeconds : 0;

  ServerStats Stats = Server.stats();
  Server.requestStop();
  Server.waitStopped();

  std::printf("server: %d version probes in %.3fs (%.2fms each)\n",
              Probes, ProbeSeconds, 1e3 * ProbeSeconds / Probes);
  std::printf("cold pass: %zu checks + matrix + analysis in %.3fs\n",
              Checks.size(), ColdSeconds);
  std::printf("warm pass: %d/%zu from cache in %.3fs\n",
              SecondPassFromCache, Checks.size(), WarmSeconds);
  std::printf("throughput: %d clients x %d checks -> %.1f req/s\n",
              Clients, PerClient, Throughput);
  std::printf("served %llu, rejected %llu, errors %llu\n", Stats.Served,
              Stats.Rejected, Stats.Errors);

  benchutil::BenchReport Report("server", Opts);
  Report.context("clients", std::to_string(Clients))
      .context("checks", std::to_string(Checks.size()));
  Report
      .metric("remote_json_identical", Identical, "bool", true, "equal")
      .metric("probe_failures", ProbeFailures, "count", true, "equal")
      .metric("pass_failures",
              PassFailures + ThroughputFailures.load(), "count", true,
              "equal")
      .metric("second_pass_from_cache", SecondPassFromCache, "count",
              true, "equal")
      .metric("second_pass_cache_hits",
              static_cast<double>(SecondPassHits), "count", true,
              "equal")
      .metric("requests_rejected", static_cast<double>(Stats.Rejected),
              "count", true, "equal")
      .metric("rpc_overhead_ms", 1e3 * ProbeSeconds / Probes, "ms",
              false, "lower")
      .metric("cold_pass_seconds", ColdSeconds, "seconds", false,
              "lower")
      .metric("warm_pass_seconds", WarmSeconds, "seconds", false,
              "lower")
      .metric("warm_speedup",
              WarmSeconds > 0 ? ColdSeconds / WarmSeconds : 0, "ratio",
              false, "higher")
      .metric("concurrent_throughput_rps", Throughput, "req/s", false,
              "higher");
  if (!Report.write(Opts))
    return 1;
  return ProbeFailures || PassFailures || ThroughputFailures ||
                 !Identical
             ? 1
             : 0;
}
