//===--- driver.cpp - the repo benchmark's workload driver -------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Runs one benchmark workload through the public API only
// (include/checkfence/) and writes every raw observation - per-op
// latencies, verdicts, and the counters the API returns (ResultStats via
// report JSON, SynthOutcome, WeakestOutcome, CacheStats, PoolStats,
// ServerStats, /status) - to one JSON file, with the host-speed samples
// taken while the workload ran (HostSpeed.h). run.py turns that file into
// metrics and checks the verdicts against known_answers.json.
//
//   perfbench --workload sweep|explore|repair|serve --seed N
//             --seconds S --out FILE [--trace-out FILE] [--setup-only]
//
// Inputs come from the seed (Workloads.h) and are generated before the
// ready timestamp; the ready timestamp (CLOCK_MONOTONIC ns) marks the end
// of set-up, so run.py measures set-up as spawn-to-ready. With
// --setup-only the driver stops there. With --trace-out it records spans
// around every call into the library and writes them at exit.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Spans.h"
#include "Workloads.h"

#include "checkfence/checkfence.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace checkfence;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string Out;
  std::string TraceOut;
  bool SetupOnly = false;
};

SpanRecorder Spans;
/// The end of set-up; op start times and host-speed samples count from
/// here.
int64_t OriginNs = 0;
/// The CPUs the process is pinned to (HostSpeed.h).
std::vector<int> PinnedCpus;

double secondsSince(int64_t StartNs) {
  return (monotonicNs() - StartNs) / 1e9;
}

double sinceOrigin(int64_t Ns) { return (Ns - OriginNs) / 1e9; }

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

/// A JSON object accumulated field by field.
class Obj {
public:
  Obj &raw(const std::string &Key, const std::string &Json) {
    Body += (Body.empty() ? "" : ", ") + quote(Key) + ": " + Json;
    return *this;
  }
  Obj &str(const std::string &Key, const std::string &V) {
    return raw(Key, quote(V));
  }
  Obj &num(const std::string &Key, double V) { return raw(Key, ::num(V)); }
  Obj &boolean(const std::string &Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  std::string done() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string array(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I < Items.size(); ++I)
    Out += (I ? ", " : "") + Items[I];
  return Out + "]";
}

std::string statsJson(const ResultStats &S) {
  return Obj()
      .num("observations", S.ObservationCount)
      .num("bound_iterations", S.BoundIterations)
      .num("unrolled_instrs", S.UnrolledInstrs)
      .num("sat_vars", S.SatVars)
      .num("sat_clauses", static_cast<double>(S.SatClauses))
      .num("encode_seconds", S.EncodeSeconds)
      .num("solve_seconds", S.SolveSeconds)
      .num("mining_seconds", S.MiningSeconds)
      .num("include_seconds", S.IncludeSeconds)
      .num("probe_seconds", S.ProbeSeconds)
      .num("races_won", S.RacesWon)
      .num("oracle_attempts", S.OracleAttempts)
      .num("oracle_discharges", S.OracleDischarges)
      .num("analysis_attempts", S.AnalysisAttempts)
      .num("analysis_discharges", S.AnalysisDischarges)
      .done();
}

std::string cacheJson(const CacheStats &C, const PoolStats &P) {
  return Obj()
      .num("entries", static_cast<double>(C.Entries))
      .num("hits", static_cast<double>(C.Hits))
      .num("misses", static_cast<double>(C.Misses))
      .num("bounds_seeded", static_cast<double>(C.BoundsSeeded))
      .num("idle_sessions", static_cast<double>(P.IdleSessions))
      .num("idle_clauses", static_cast<double>(P.IdleClauses))
      .done();
}

std::string implKind(const std::string &Impl) {
  for (const ImplDesc &D : listImplementations())
    if (D.Name == Impl)
      return D.Kind;
  return std::string();
}

/// Lattice-point names to canonical descriptors, for run.py's
/// monotonicity check (descriptor-named points map to themselves).
std::string modelDescriptors() {
  Obj O;
  for (const ModelDesc &M : listModels())
    O.str(M.Name, M.Descriptor);
  return O.done();
}

/// The state a workload leaves behind for the output file.
struct Output {
  Obj Head;
  std::vector<std::string> Ops;
  Obj Tail;
};

//===----------------------------------------------------------------------===//
// sweep
//===----------------------------------------------------------------------===//

struct SweepWorkload {
  std::vector<Program> Progs = sweepPrograms();
  std::vector<std::vector<int>> Orders;
  std::unique_ptr<Verifier> V;

  std::string setUp(uint64_t Seed, double) {
    VerifierConfig Cfg;
    Cfg.Jobs = SweepJobs;
    Cfg.EnableCache = false;
    V = std::make_unique<Verifier>(Cfg);
    Orders = passOrders(Seed, static_cast<int>(Progs.size()));
    std::string Digest;
    for (const std::vector<int> &O : Orders)
      for (int I : O)
        Digest += Progs[I].label() + ";";
    return Digest;
  }

  void run(double Seconds, Output &Out) {
    const int Passes = std::min(unitsFor(Seconds, SweepPassSeconds),
                                static_cast<int>(Orders.size()));
    for (int Pass = 0; Pass < Passes; ++Pass) {
      for (int I : Orders[Pass]) {
        const Program &P = Progs[I];
        Request Req = Request::sweep()
                          .impls({P.Impl})
                          .tests({P.Test})
                          .stripFences(P.Strip)
                          .jobs(SweepJobs)
                          .noCache();
        const int64_t T0 = monotonicNs();
        Report Rep;
        {
          SpanRecorder::Scope S(Spans, "api.matrix");
          Rep = V->matrix(Req);
        }
        const double Wall = secondsSince(T0);
        std::vector<std::string> Cells;
        for (const Report::Cell &C : Rep.cells())
          Cells.push_back(array(
              {quote(C.Model), quote(statusName(C.Verdict)), num(C.Seconds)}));
        Obj O;
        O.num("pass", Pass)
            .str("program", P.label())
            .str("impl", P.Impl)
            .str("test", P.Test)
            .boolean("strip", P.Strip)
            .num("t0", sinceOrigin(T0))
            .num("wall_s", Wall)
            .boolean("ok", Rep.ok())
            .str("error", Rep.error())
            .raw("cells", array(Cells));
        if (Spans.enabled())
          O.raw("report", Rep.json(true));
        Out.Ops.push_back(O.done());
      }
    }
    Out.Tail.num("passes", Passes)
        .raw("api", cacheJson(V->cacheStats(), V->poolStats()));
  }
};

//===----------------------------------------------------------------------===//
// explore
//===----------------------------------------------------------------------===//

/// Per-scenario latency from the gaps between scenario events (jobs(1)
/// runs scenarios one at a time, so a gap is one scenario's work).
class ScenarioClock : public EventSink {
public:
  void start() { Last = monotonicNs(); }
  void onScenarioChecked(const ScenarioCheckedEvent &E) override {
    const int64_t Now = monotonicNs();
    std::lock_guard<std::mutex> Lock(M);
    LatencyMs.push_back(num((Now - Last) / 1e6));
    Diverged += E.Diverged;
    Last = Now;
  }
  std::vector<std::string> take() {
    std::lock_guard<std::mutex> Lock(M);
    return std::move(LatencyMs);
  }
  int Diverged = 0;

private:
  std::mutex M;
  int64_t Last = 0;
  std::vector<std::string> LatencyMs;
};

struct ExploreWorkload {
  std::vector<uint64_t> Seeds;
  std::unique_ptr<Verifier> V;

  std::string setUp(uint64_t Seed, double Seconds) {
    VerifierConfig Cfg;
    Cfg.Jobs = 1;
    V = std::make_unique<Verifier>(Cfg);
    Seeds = exploreSeeds(Seed, unitsFor(Seconds, ExploreCallSeconds));
    std::string Digest;
    for (uint64_t S : Seeds)
      Digest += std::to_string(S) + ";";
    return Digest;
  }

  void run(double, Output &Out) {
    for (uint64_t S : Seeds) {
      Request Req = Request::explore()
                        .symbolicShare(0)
                        .models(exploreModels())
                        .jobs(1)
                        .seed(S)
                        .budget(ExploreChunk);
      ScenarioClock Clock;
      const int64_t T0 = monotonicNs();
      Clock.start();
      ExploreOutcome O;
      {
        SpanRecorder::Scope Span(Spans, "api.explore");
        O = V->explore(Req, &Clock);
      }
      const double Wall = secondsSince(T0);
      std::vector<std::string> Divs;
      for (const ExploreDivergence &D : O.divergences())
        Divs.push_back(Obj()
                           .str("label", D.Label)
                           .str("kind", D.Kind)
                           .str("model", D.Model)
                           .done());
      Out.Ops.push_back(Obj()
                            .num("seed", static_cast<double>(S))
                            .num("t0", sinceOrigin(T0))
                            .num("wall_s", Wall)
                            .boolean("ok", O.ok())
                            .str("error", O.error())
                            .boolean("cancelled", O.cancelled())
                            .num("generated", O.generated())
                            .num("deduplicated", O.deduplicated())
                            .num("run", O.run())
                            .num("skips", O.skips())
                            .num("diverged_events", Clock.Diverged)
                            .raw("divergences", array(Divs))
                            .raw("latency_ms", array(Clock.take()))
                            .done());
    }
    Out.Tail.raw("api", cacheJson(V->cacheStats(), V->poolStats()));
  }
};

//===----------------------------------------------------------------------===//
// repair
//===----------------------------------------------------------------------===//

/// Index of the line holding the brace that closes the block opened on
/// line \p Open, or -1.
int closingLine(const std::vector<std::string> &Lines, int Open) {
  int Depth = 0;
  for (int I = Open; I < static_cast<int>(Lines.size()); ++I)
    for (char C : Lines[I]) {
      Depth += C == '{';
      if (C == '}' && --Depth == 0)
        return I;
    }
  return -1;
}

/// The implementation's own source (prelude excluded) with every fence()
/// call removed and \p Fences inserted in front of the statements on
/// their lines. Line numbers are unchanged, so they match the synthesized
/// placement's prelude-inclusive numbering. A fence on a while-loop
/// header guards every evaluation of the condition, as the synthesizer
/// places it: it goes in front of the loop and at the end of its body
/// (the catalog loops have no `continue`).
std::string placeFences(const std::string &Impl,
                        const std::vector<SynthFence> &Fences) {
  const std::string Prelude = preludeSource();
  std::string Body = implementationSource(Impl).substr(Prelude.size());
  Body = std::regex_replace(Body, std::regex("fence\\(\"[a-z-]+\"\\);"), "");
  const int PreludeLines =
      static_cast<int>(std::count(Prelude.begin(), Prelude.end(), '\n'));
  std::vector<std::string> Lines;
  std::istringstream In(Body);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  for (const SynthFence &F : Fences) {
    int Idx = F.Line - PreludeLines - 1;
    if (Idx < 0 || Idx >= static_cast<int>(Lines.size()))
      return std::string();
    const std::string Fence = "fence(\"" + F.Kind + "\"); ";
    std::string &L = Lines[Idx];
    size_t Indent = L.find_first_not_of(" \t");
    if (Indent == std::string::npos)
      Indent = L.size();
    if (L.compare(Indent, 5, "while") == 0 &&
        L.find('{') != std::string::npos) {
      int Close = closingLine(Lines, Idx);
      if (Close < 0)
        return std::string();
      std::string &C = Lines[Close];
      C.insert(C.rfind('}'), Fence);
    }
    L.insert(Indent, Fence);
  }
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

struct RepairWorkload {
  std::vector<RepairOp> Ops = repairOps();
  std::vector<std::vector<int>> Orders;
  std::unique_ptr<Verifier> V;

  std::string setUp(uint64_t Seed, double) {
    VerifierConfig Cfg;
    Cfg.Jobs = 1;
    V = std::make_unique<Verifier>(Cfg);
    Orders = passOrders(Seed, static_cast<int>(Ops.size()));
    std::string Digest;
    for (const std::vector<int> &O : Orders)
      for (int I : O)
        Digest += Ops[I].label() + ";";
    return Digest;
  }

  static std::string fencesJson(const std::vector<SynthFence> &Fs) {
    std::vector<std::string> Items;
    for (const SynthFence &F : Fs)
      Items.push_back(array({num(F.Line), quote(F.Kind)}));
    return array(Items);
  }

  void run(double Seconds, Output &Out) {
    // Distinct synthesized placements, re-checked after the timed loop.
    std::map<std::string, std::pair<const RepairOp *, SynthOutcome>>
        Placements;
    const int Passes = std::min(
        std::max(MinRepairPasses, unitsFor(Seconds, RepairPassSeconds)),
        static_cast<int>(Orders.size()));
    for (int Pass = 0; Pass < Passes; ++Pass) {
      for (int I : Orders[Pass]) {
        const RepairOp &Op = Ops[I];
        Obj O;
        O.num("pass", Pass).str("op", Op.label()).str("impl", Op.P.Impl)
            .str("test", Op.P.Test).boolean("strip", Op.P.Strip);
        const int64_t T0 = monotonicNs();
        O.num("t0", sinceOrigin(T0));
        if (Op.K == RepairOp::Kind::Synth) {
          Request Req = Request::synthesis(Op.P.Impl, Op.P.Test)
                            .model(Op.Model)
                            .jobs(1)
                            .noCache();
          SynthOutcome S;
          {
            SpanRecorder::Scope Span(Spans, "api.synthesize");
            S = V->synthesize(Req);
          }
          O.num("wall_s", secondsSince(T0))
              .str("kind", "synth")
              .str("model", Op.Model)
              .boolean("success", S.Success)
              .boolean("cancelled", S.Cancelled)
              .str("message", S.Message)
              .raw("fences", fencesJson(S.Fences))
              .num("checks", S.ChecksRun)
              .num("repair_s", S.RepairSeconds)
              .num("minimize_s", S.MinimizeSeconds);
          if (S.Success)
            Placements.emplace(Op.label() + fencesJson(S.Fences),
                               std::make_pair(&Op, S));
        } else {
          Request Req = Request::weakestModel(Op.P.Impl, Op.P.Test)
                            .stripFences(Op.P.Strip)
                            .jobs(1)
                            .noCache();
          WeakestOutcome W;
          {
            SpanRecorder::Scope Span(Spans, "api.weakestModels");
            W = V->weakestModels(Req);
          }
          std::vector<std::string> Weakest;
          for (const std::string &M : W.Weakest)
            Weakest.push_back(quote(M));
          O.num("wall_s", secondsSince(T0))
              .str("kind", "weakest")
              .boolean("success", W.Ok && !W.Cancelled)
              .str("message", W.Error)
              .raw("weakest", array(Weakest))
              .num("cells_run", W.CellsRun)
              .num("cells_inferred", W.CellsInferred);
        }
        Out.Ops.push_back(O.done());
      }
    }
    Out.Tail.num("passes", Passes)
        .raw("api", cacheJson(V->cacheStats(), V->poolStats()));

    // Untimed: the fresh reference pipeline re-checks every placement.
    std::vector<std::string> Rechecks;
    for (const auto &[Key, Entry] : Placements) {
      const RepairOp &Op = *Entry.first;
      std::string Source = placeFences(Op.P.Impl, Entry.second.Fences);
      Result R;
      if (!Source.empty()) {
        SpanRecorder::Scope Span(Spans, "recheck.fresh");
        R = V->check(Request::check()
                         .source(Source)
                         .label(Op.P.Impl + "+synth")
                         .dataType(implKind(Op.P.Impl))
                         .test(Op.P.Test)
                         .model(Op.Model)
                         .freshPipeline()
                         .noCache());
      }
      Rechecks.push_back(Obj()
                             .str("op", Op.label())
                             .raw("fences", fencesJson(Entry.second.Fences))
                             .str("verdict", Source.empty()
                                                 ? "PLACEMENT-OUT-OF-RANGE"
                                                 : statusName(R.Verdict))
                             .str("message", R.Message)
                             .done());
    }
    Out.Tail.raw("rechecks", array(Rechecks));
  }
};

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// GET \p Path from the in-process server; the body, or empty on failure.
std::string httpGet(int Port, const std::string &Path) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return std::string();
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string Resp;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
      0) {
    std::string Req = "GET " + Path +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: "
                      "close\r\n\r\n";
    if (::send(Fd, Req.data(), Req.size(), 0) ==
        static_cast<ssize_t>(Req.size())) {
      char Buf[4096];
      ssize_t N = 0;
      while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
        Resp.append(Buf, static_cast<size_t>(N));
    }
  }
  ::close(Fd);
  size_t Body = Resp.find("\r\n\r\n");
  return Body == std::string::npos ? std::string() : Resp.substr(Body + 4);
}

struct ServeWorkload {
  std::vector<ServeKey> Keys = serveKeys();
  std::vector<int> Stream;
  std::unique_ptr<CheckServer> Server;
  std::vector<std::unique_ptr<RemoteVerifier>> Clients;
  int VersionFailures = 0;

  std::string setUp(uint64_t Seed, double) {
    ServerConfig Cfg;
    Cfg.Port = 0;
    Cfg.Shards = 2;
    Cfg.JobsPerShard = 1;
    Server = std::make_unique<CheckServer>(Cfg);
    std::string Error;
    if (!Server->start(Error)) {
      std::fprintf(stderr, "perfbench: cannot start server: %s\n",
                   Error.c_str());
      std::exit(1);
    }
    const std::string Url =
        "http://127.0.0.1:" + std::to_string(Server->port());
    for (int I = 0; I < ServeClients; ++I) {
      Clients.push_back(std::make_unique<RemoteVerifier>(Url));
      std::string Version;
      int Schema = 0;
      VersionFailures += !Clients.back()->version(Version, Schema);
    }
    Stream = serveStream(Seed);
    std::string Digest;
    for (int K : Stream)
      Digest += std::to_string(K) + ";";
    return Digest;
  }

  void tearDown() {
    Server->requestStop();
    Server->waitStopped();
  }

  void run(double Seconds, Output &Out) {
    struct Rpc {
      int Key = 0;
      double Start = 0; ///< seconds into the window
      double Latency = 0;
      int Http = 0;
      std::string Verdict;
      bool FromCache = false;
      bool Mismatch = false;
      std::string Stats;
    };
    std::vector<std::vector<Rpc>> PerClient(ServeClients);
    std::mutex AnalyzeM;
    std::map<int, std::string> FirstAnalyze; // guarded by AnalyzeM
    std::atomic<size_t> Next{0};
    const int64_t Start = monotonicNs();
    const int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);

    std::vector<std::thread> Threads;
    for (int C = 0; C < ServeClients; ++C)
      Threads.emplace_back([&, C] {
        RemoteVerifier &RV = *Clients[C];
        while (monotonicNs() < Deadline) {
          Rpc R;
          R.Key = Stream[Next.fetch_add(1) % Stream.size()];
          const ServeKey &K = Keys[R.Key];
          const int64_t T0 = monotonicNs();
          R.Start = (T0 - Start) / 1e9;
          SpanRecorder::Scope Span(Spans, "server.rpc");
          if (K.Analyze) {
            RemoteAnalysis A;
            RemoteStatus St = RV.analyze(
                Request::analyze(K.P.Impl, K.P.Test).models(exploreModels()),
                A);
            R.Http = St.HttpStatus;
            R.Verdict = St && A.Ok ? "OK" : "ERROR";
            std::lock_guard<std::mutex> Lock(AnalyzeM);
            auto [It, Fresh] = FirstAnalyze.emplace(R.Key, A.Json);
            R.Mismatch = !Fresh && It->second != A.Json;
          } else {
            Result Res;
            RemoteStatus St =
                RV.check(Request::check(K.P.Impl, K.P.Test)
                             .model(K.Model)
                             .stripFences(K.P.Strip),
                         Res);
            R.Http = St.HttpStatus;
            R.Verdict = St ? statusName(Res.Verdict) : "TRANSPORT-ERROR";
            R.FromCache = Res.FromCache;
            if (St && !Res.FromCache)
              R.Stats = statsJson(Res.Stats);
          }
          R.Latency = secondsSince(T0);
          PerClient[C].push_back(std::move(R));
        }
      });
    for (std::thread &T : Threads)
      T.join();
    const double Window = secondsSince(Start);

    for (const std::vector<Rpc> &Rs : PerClient)
      for (const Rpc &R : Rs) {
        std::vector<std::string> Row = {num(R.Key),  num(R.Start),
                                        num(R.Latency), num(R.Http),
                                        quote(R.Verdict),
                                        R.FromCache ? "1" : "0",
                                        R.Mismatch ? "1" : "0"};
        if (!R.Stats.empty())
          Row.push_back(R.Stats);
        Out.Ops.push_back(array(Row));
      }

    std::vector<std::string> KeyLabels;
    for (const ServeKey &K : Keys)
      KeyLabels.push_back(quote(K.label()));
    ServerStats S = Server->stats();
    Out.Tail.num("window_start_s", sinceOrigin(Start))
        .num("window_s", Window)
        .raw("keys", array(KeyLabels))
        .num("version_failures", VersionFailures)
        .num("rejected", static_cast<double>(S.Rejected))
        .num("server_errors", static_cast<double>(S.Errors))
        .num("server_cancelled", static_cast<double>(S.Cancelled))
        .raw("api", cacheJson(S.Cache, S.Pool));

    if (Spans.enabled()) {
      // Pure protocol cost: version probes carry no verification work.
      std::vector<std::string> Probes;
      for (int I = 0; I < 200; ++I) {
        std::string Version;
        int Schema = 0;
        const int64_t T0 = monotonicNs();
        SpanRecorder::Scope Span(Spans, "server.version");
        Clients[0]->version(Version, Schema);
        Probes.push_back(num((monotonicNs() - T0) / 1e6));
      }
      std::string Status = httpGet(Server->port(), "/status");
      Out.Tail.raw("version_probe_ms", array(Probes))
          .raw("status", Status.empty() ? "null" : Status);
    }
  }
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--setup-only") {
      A.SetupOnly = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (Flag == "--out")
      A.Out = V;
    else if (Flag == "--trace-out")
      A.TraceOut = V;
    else
      return false;
  }
  return !A.Out.empty() && !A.Workload.empty();
}

template <typename W>
int runWorkload(W &Work, const Args &A, const char *Name) {
  Output Out;
  std::string Digest;
  {
    SpanRecorder::Scope Span(Spans, "setup");
    Digest = Work.setUp(A.Seed, A.Seconds);
  }
  const int64_t ReadyNs = monotonicNs();
  OriginNs = ReadyNs;
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(Digest)));
  Out.Head.str("workload", Name)
      .num("seed", static_cast<double>(A.Seed))
      .str("digest", Hex)
      .num("ready_ns", static_cast<double>(ReadyNs))
      .raw("models", modelDescriptors());
  HostSpeed Host(PinnedCpus);
  Out.Head.num("ready_kernel_ms", Host.sampleHere() / 1e6);
  if (!A.SetupOnly) {
    Host.start();
    Work.run(A.Seconds, Out);
    Host.stop();
    std::vector<std::string> Samples;
    for (const HostSpeed::Sample &S : Host.samples())
      Samples.push_back(array(
          {num(sinceOrigin(S.StartNs)), num(S.Cpu), num(S.KernelNs / 1e6)}));
    Out.Tail.raw("host", array(Samples));
  }

  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  Out.Tail.num("peak_rss_kb", static_cast<double>(Usage.ru_maxrss));

  std::FILE *F = std::fopen(A.Out.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.Out.c_str());
    return 1;
  }
  std::string Head = Out.Head.done(), Tail = Out.Tail.done();
  std::fprintf(F, "{\"head\": %s,\n\"tail\": %s,\n\"ops\": [\n",
               Head.c_str(), Tail.c_str());
  for (size_t I = 0; I < Out.Ops.size(); ++I)
    std::fprintf(F, "%s%s\n", Out.Ops[I].c_str(),
                 I + 1 < Out.Ops.size() ? "," : "");
  std::fputs("]}\n", F);
  if (std::fclose(F) != 0)
    return 1;
  if (!A.TraceOut.empty() && !Spans.write(A.TraceOut)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
    return 1;
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  if (!parseArgs(argc, argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload sweep|explore|repair|serve "
                 "--seed N --seconds S --out FILE [--trace-out FILE] "
                 "[--setup-only]\n");
    return 64;
  }
  if (!A.TraceOut.empty())
    Spans.enable();

  // One CPU per thread the workload keeps busy: sweep's 2 workers, the
  // single worker of explore and repair, and all of them for serve's
  // clients, connection threads and shards.
  const int Busy = A.Workload == "sweep"   ? SweepJobs
                   : A.Workload == "serve" ? ServeClients
                                           : 1;
  PinnedCpus = pinToCpus(Busy);

  if (A.Workload == "sweep") {
    SweepWorkload W;
    return runWorkload(W, A, "sweep");
  }
  if (A.Workload == "explore") {
    ExploreWorkload W;
    return runWorkload(W, A, "explore");
  }
  if (A.Workload == "repair") {
    RepairWorkload W;
    return runWorkload(W, A, "repair");
  }
  if (A.Workload == "serve") {
    ServeWorkload W;
    int Rc = runWorkload(W, A, "serve");
    W.tearDown();
    return Rc;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               A.Workload.c_str());
  return 64;
}
