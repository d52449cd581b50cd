//===--- Server.cpp - the checkfenced daemon core -----------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
//
// Thread architecture:
//
//   listener ---- accepts, spawns one connection thread per socket
//   connection -- parses HTTP + JSON-RPC, enqueues a Job on a shard,
//                 blocks on the job's future, writes the response
//   shard worker (xN) -- pops Jobs by priority, runs them on the
//                 shard's Verifier (one request at a time per shard;
//                 intra-request parallelism comes from JobsPerShard)
//   watcher ----- polls waiting sockets; a client disconnect cancels
//                 the matching request's CancelToken
//
// Admission control happens on the connection thread: when the global
// queued count reaches QueueDepth the request is answered 429 +
// Retry-After without ever touching a shard. A graceful drain stops the
// listener, lets the queues empty (every queued job has a connection
// thread waiting on it), joins everything, and persists the cache.
//
//===----------------------------------------------------------------------===//

#include "checkfence/Server.h"

#include "checkfence/checkfence.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "server/Http.h"
#include "server/Wire.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace checkfence;
using namespace checkfence::server;
using support::JsonArray;
using support::JsonObject;
using support::JsonValue;

namespace {

/// Thread-safe progress counters fed by every request's EventSink (the
/// scenarios/cells throughput half of /metrics).
class MetricsSink : public EventSink {
public:
  void onCellFinished(const CellFinishedEvent &) override { ++Cells; }
  void onScenarioChecked(const ScenarioCheckedEvent &) override {
    ++Scenarios;
  }
  std::atomic<unsigned long long> Cells{0};
  std::atomic<unsigned long long> Scenarios{0};
};

/// Polls sockets whose requests are queued or running; a peer that
/// closes (or resets) its connection cancels the matching token, so an
/// abandoned request stops consuming a shard at the next phase boundary.
/// Each poll pass runs under the mutex, so once unwatch() returns no pass
/// touches the fd and its owner may close it (or the kernel reuse it).
class DisconnectWatcher {
public:
  void watch(int Fd, CancelToken Token) {
    std::lock_guard<std::mutex> Lock(Mu);
    Watched.push_back({Fd, std::move(Token)});
  }
  void unwatch(int Fd) {
    std::lock_guard<std::mutex> Lock(Mu);
    for (auto It = Watched.begin(); It != Watched.end(); ++It)
      if (It->Fd == Fd) {
        Watched.erase(It);
        return;
      }
  }

  void start() {
    Thread = std::thread([this] { run(); });
  }
  void stop() {
    Stopping.store(true);
    if (Thread.joinable())
      Thread.join();
  }

private:
  struct Entry {
    int Fd;
    CancelToken Token;
  };

  void run() {
    while (!Stopping.load()) {
      pollOnce();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  /// One non-blocking pass over the watched fds.
  void pollOnce() {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const Entry &E : Watched) {
      struct pollfd P;
      P.fd = E.Fd;
      P.events = POLLIN;
      P.revents = 0;
      if (::poll(&P, 1, 0) <= 0)
        continue;
      if (P.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        E.Token.cancel();
        continue;
      }
      if (P.revents & POLLIN) {
        // Readable on a connection that already sent its request
        // means EOF (the protocol is one request per connection);
        // peek to distinguish it from stray bytes.
        char C;
        if (::recv(E.Fd, &C, 1, MSG_PEEK | MSG_DONTWAIT) == 0)
          E.Token.cancel();
      }
    }
  }

  std::mutex Mu;
  std::vector<Entry> Watched;
  std::atomic<bool> Stopping{false};
  std::thread Thread;
};

/// One queued request: the closure runs on a shard worker and renders
/// the JSON-RPC response body; the connection thread waits on Done.
struct Job {
  int Priority = 1; // 0 high, 1 normal, 2 low
  std::function<std::string()> Run;
  std::promise<std::string> Done;
  /// Short request-kind name ("check", "matrix", ...) for the latency
  /// histogram label and the slow-request log.
  const char *KindName = "?";
  /// Admission time, for the queue-wait histogram.
  std::chrono::steady_clock::time_point EnqueuedAt;
  /// Per-request tracer (X-Checkfence-Trace round-trip); null for the
  /// common untraced case.
  std::shared_ptr<obs::Tracer> Tracer;
  /// Enqueue instant in the tracer's clock, for the queue_wait span.
  uint64_t EnqueueNs = 0;
};

struct Shard {
  std::unique_ptr<Verifier> V;
  std::thread Worker;
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<std::unique_ptr<Job>> Queues[3];
};

int priorityFromName(const std::string &Name) {
  if (Name == "high")
    return 0;
  if (Name == "low")
    return 2;
  return 1;
}

const char *priorityName(int Priority) {
  switch (Priority) {
  case 0:
    return "high";
  case 2:
    return "low";
  default:
    return "normal";
  }
}

const char *kindShortName(Request::Kind K) {
  switch (K) {
  case Request::Kind::Check:
    return "check";
  case Request::Kind::Matrix:
    return "matrix";
  case Request::Kind::Sweep:
    return "sweep";
  case Request::Kind::WeakestModel:
    return "weakest";
  case Request::Kind::Synthesis:
    return "synth";
  case Request::Kind::Litmus:
    return "litmus";
  case Request::Kind::Explore:
    return "explore";
  case Request::Kind::Analyze:
    return "analyze";
  }
  return "?";
}

} // namespace

//===----------------------------------------------------------------------===//
// CheckServer::Impl
//===----------------------------------------------------------------------===//

struct CheckServer::Impl {
  ServerConfig Cfg;
  SharedResultCache Shared = SharedResultCache::create();
  std::vector<std::unique_ptr<Shard>> Shards;
  MetricsSink Sink;
  DisconnectWatcher Watcher;

  int ListenFd = -1;
  int BoundPort = 0;
  std::thread Listener;

  std::atomic<bool> Started{false};
  std::atomic<bool> Stopping{false};
  /// Set only after every connection thread has exited: a worker must
  /// never quit while a connection could still enqueue, or that job
  /// (and its waiting connection) would hang forever.
  std::atomic<bool> WorkersExit{false};
  std::atomic<bool> Drained{false};

  // Counters (ServerStats). These atomics stay the source of truth for
  // snapshot(); the registry mirrors them at scrape time and owns the
  // series the atomics cannot express (latency/queue-wait histograms).
  std::atomic<unsigned long long> Accepted{0}, Served{0}, Rejected{0},
      Cancelled{0}, Errors{0};
  std::atomic<size_t> Queued{0}, InFlight{0};

  // Metrics registry (one per server instance so parallel in-process
  // servers - the test suites boot several - stay isolated).
  obs::MetricsRegistry Reg;
  obs::Counter *MServed, *MRejected, *MCancelled, *MErrors, *MAccepted;
  obs::Gauge *MQueued, *MInFlight;
  obs::Counter *MCacheHits, *MCacheMisses, *MCacheSeeded;
  obs::Gauge *MCacheEntries;
  obs::Counter *MCells, *MScenarios;
  obs::HistogramFamily *RequestSeconds;
  obs::HistogramFamily *QueueWaitSeconds;

  Impl() {
    // Registration order is render order; keep it aligned with the
    // pre-registry /metrics layout so existing scrapers stay happy.
    MServed = &Reg.counter("checkfence_requests_served_total",
                           "RPC requests answered");
    MRejected = &Reg.counter("checkfence_requests_rejected_total",
                             "admission rejections (HTTP 429)");
    MCancelled = &Reg.counter("checkfence_requests_cancelled_total",
                              "requests that finished cancelled");
    MErrors = &Reg.counter("checkfence_requests_error_total",
                           "requests that finished in error");
    MAccepted = &Reg.counter("checkfence_connections_accepted_total",
                             "TCP connections accepted");
    MQueued = &Reg.gauge("checkfence_queue_depth",
                         "requests waiting for a shard");
    MInFlight = &Reg.gauge("checkfence_inflight",
                           "requests running on a shard");
    MCacheHits =
        &Reg.counter("checkfence_cache_hits_total", "result cache hits");
    MCacheMisses = &Reg.counter("checkfence_cache_misses_total",
                                "result cache misses");
    MCacheEntries =
        &Reg.gauge("checkfence_cache_entries", "result cache entries");
    MCacheSeeded =
        &Reg.counter("checkfence_cache_bounds_seeded_total",
                     "runs whose bounds were seeded from the cache");
    MCells = &Reg.counter("checkfence_cells_completed_total",
                          "matrix cells completed");
    MScenarios = &Reg.counter("checkfence_scenarios_checked_total",
                              "explore scenarios checked");
    RequestSeconds = &Reg.histogramFamily(
        "checkfence_request_seconds",
        "request latency on a shard worker, by request kind", "kind",
        obs::latencyBuckets());
    QueueWaitSeconds = &Reg.histogramFamily(
        "checkfence_queue_wait_seconds",
        "time from admission to shard dispatch, by priority class",
        "priority", obs::latencyBuckets());
    // Pre-create the label values so every series renders (as zeros)
    // from the first scrape and the exposition shape is stable.
    for (const char *Kind : {"check", "matrix", "sweep", "weakest",
                             "synth", "litmus", "explore", "analyze"})
      RequestSeconds->withLabel(Kind);
    for (const char *P : {"high", "normal", "low"})
      QueueWaitSeconds->withLabel(P);
  }

  // Connection threads, reaped opportunistically by the listener.
  struct Conn {
    std::thread T;
    std::atomic<bool> Finished{false};
  };
  std::mutex ConnMu;
  std::list<std::unique_ptr<Conn>> Conns;
  std::atomic<size_t> ActiveConns{0};

  ~Impl() = default;

  //===------------------------------------------------------------===//
  // Shard queue
  //===------------------------------------------------------------===//

  size_t shardFor(const Request &Req) const {
    // Identical programs land on the same shard, so identical concurrent
    // misses queue behind each other and the second is answered from the
    // shared cache instead of being checked twice. (Bounds seeding needs
    // no affinity: it reads the shared cache from any shard.)
    std::string Key = Req.ImplName + '\x1f' + Req.SourceText + '\x1f' +
                      Req.TestName + '\x1f' + Req.Notation;
    for (const std::string &D : Req.Defines)
      Key += '\x1f' + D;
    return std::hash<std::string>{}(Key) % Shards.size();
  }

  /// False when the queue is full (admission rejection).
  bool enqueue(size_t ShardIdx, std::unique_ptr<Job> J) {
    size_t Before = Queued.fetch_add(1);
    if (Before >= static_cast<size_t>(Cfg.QueueDepth)) {
      Queued.fetch_sub(1);
      return false;
    }
    Shard &S = *Shards[ShardIdx];
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Queues[J->Priority].push_back(std::move(J));
    }
    S.Cv.notify_one();
    return true;
  }

  void workerLoop(Shard &S) {
    while (true) {
      std::unique_ptr<Job> J;
      {
        std::unique_lock<std::mutex> Lock(S.Mu);
        S.Cv.wait(Lock, [&] {
          return WorkersExit.load() || !S.Queues[0].empty() ||
                 !S.Queues[1].empty() || !S.Queues[2].empty();
        });
        for (auto &Q : S.Queues)
          if (!Q.empty()) {
            J = std::move(Q.front());
            Q.pop_front();
            break;
          }
        if (!J) {
          if (WorkersExit.load())
            return; // drained: queues empty and no more arrivals
          continue;
        }
      }
      Queued.fetch_sub(1);
      InFlight.fetch_add(1);
      double Waited = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - J->EnqueuedAt)
                          .count();
      QueueWaitSeconds->withLabel(priorityName(J->Priority))
          .observe(Waited);
      if (J->Tracer)
        J->Tracer->record("server", "queue_wait", J->EnqueueNs,
                          J->Tracer->nowNs());
      std::chrono::steady_clock::time_point RunStart =
          std::chrono::steady_clock::now();
      std::string Payload = J->Run();
      double RunSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - RunStart)
                              .count();
      // Observe and log before fulfilling the promise: a client that
      // has received its response is guaranteed to see this request in
      // a subsequent /metrics scrape.
      RequestSeconds->withLabel(J->KindName).observe(RunSeconds);
      obs::logf(obs::LogLevel::Info, "server",
                "%s finished in %.3fs (waited %.3fs, %s priority)",
                J->KindName, RunSeconds, Waited,
                priorityName(J->Priority));
      if (Cfg.SlowRequestSeconds > 0 &&
          RunSeconds > Cfg.SlowRequestSeconds)
        obs::logf(obs::LogLevel::Warn, "server",
                  "slow request: %s took %.3fs (threshold %.3fs)",
                  J->KindName, RunSeconds, Cfg.SlowRequestSeconds);
      InFlight.fetch_sub(1);
      J->Done.set_value(std::move(Payload));
    }
  }

  //===------------------------------------------------------------===//
  // RPC dispatch (runs on a shard worker)
  //===------------------------------------------------------------===//

  std::string runRequest(size_t ShardIdx, Request Req, int Id,
                         CancelToken Token, obs::Tracer *Tracer) {
    Verifier &V = *Shards[ShardIdx]->V;
    std::string Payload;
    bool WasCancelled = false;
    {
    // Install the per-request tracer for this worker; the Verifier's
    // fan-out points propagate it to any threads they spawn. The scope
    // closes the dispatch span before the events are serialized below.
    obs::TraceContext TC(Tracer);
    obs::Span DispatchSpan("server", [&] {
      return std::string("dispatch:") + kindShortName(Req.RequestKind);
    });
    if (DispatchSpan.active())
      DispatchSpan.args(JsonObject()
                            .field("shard", static_cast<int>(ShardIdx))
                            .str());
    switch (Req.RequestKind) {
    case Request::Kind::Check: {
      Result R = V.check(Req, &Sink, Token);
      WasCancelled = R.Verdict == Status::Cancelled;
      if (R.Verdict == Status::Error)
        ++Errors;
      Payload = encodeResult(R);
      break;
    }
    case Request::Kind::Matrix:
    case Request::Kind::Sweep: {
      Report R = V.matrix(Req, &Sink, Token);
      JsonObject O;
      O.field("ok", R.ok());
      O.field("error", R.error());
      if (R.ok()) {
        O.field("table", R.table());
        O.field("json", R.json(true));
        O.field("jsonNoTimings", R.json(false));
        O.field("allCompleted", R.allCompleted());
        O.field("cellCount",
                static_cast<unsigned long long>(R.cellCount()));
        O.field("errorCells", R.count(Status::Error));
        O.field("cancelledCells", R.count(Status::Cancelled));
        WasCancelled = R.count(Status::Cancelled) > 0;
      } else {
        ++Errors;
      }
      Payload = O.str();
      break;
    }
    case Request::Kind::Analyze: {
      AnalysisOutcome A = V.analyze(Req);
      JsonObject O;
      O.field("ok", A.Ok);
      O.field("error", A.Error);
      if (A.Ok) {
        O.field("table", A.table());
        O.field("json", A.json());
      } else {
        ++Errors;
      }
      Payload = O.str();
      break;
    }
    case Request::Kind::Explore: {
      ExploreOutcome E = V.explore(Req, &Sink, Token);
      JsonObject O;
      O.field("ok", E.ok());
      O.field("error", E.error());
      if (E.ok()) {
        O.field("cancelled", E.cancelled());
        O.field("seed", static_cast<unsigned long long>(E.seed()));
        O.field("generated", E.generated());
        O.field("deduplicated", E.deduplicated());
        O.field("run", E.run());
        O.field("skips", E.skips());
        O.field("shrunk", E.shrunk());
        O.raw("wallSeconds", wireDouble(E.wallSeconds()));
        O.field("json", E.json(true));
        O.field("jsonNoTimings", E.json(false));
        {
          JsonArray W;
          for (const std::string &S : E.warnings())
            W.item(support::jsonQuote(S));
          O.raw("warnings", W.str());
        }
        {
          JsonArray D;
          for (const ExploreDivergence &Div : E.divergences())
            D.item(encodeDivergence(Div));
          O.raw("divergences", D.str());
        }
        WasCancelled = E.cancelled();
      } else {
        ++Errors;
      }
      Payload = O.str();
      break;
    }
    case Request::Kind::Synthesis: {
      SynthOutcome S = V.synthesize(Req, &Sink, Token);
      WasCancelled = S.Cancelled;
      JsonObject O;
      O.raw("outcome", encodeSynthOutcome(S));
      O.field("json", S.json());
      Payload = O.str();
      break;
    }
    case Request::Kind::WeakestModel: {
      WeakestOutcome W = V.weakestModels(Req, &Sink, Token);
      WasCancelled = W.Cancelled;
      if (!W.Ok)
        ++Errors;
      Payload = encodeWeakestOutcome(W);
      break;
    }
    case Request::Kind::Litmus: {
      LitmusOutcome L = V.observable(Req);
      if (!L.Ok)
        ++Errors;
      JsonObject O;
      O.field("ok", L.Ok);
      O.field("reachable", L.Reachable);
      O.field("error", L.Error);
      Payload = O.str();
      break;
    }
    }
    }
    if (WasCancelled)
      ++Cancelled;
    ++Served;
    if (Tracer)
      return rpcResultWithTrace(Payload, Id, Tracer->eventsJson());
    return rpcResult(Payload, Id);
  }

  //===------------------------------------------------------------===//
  // HTTP routing (runs on a connection thread)
  //===------------------------------------------------------------===//

  HttpResponse handleRpc(const HttpRequest &Http, int Fd) {
    HttpResponse Resp;
    JsonValue Root;
    std::string ParseError;
    if (!support::parseJson(Http.Body, Root, ParseError) ||
        !Root.isObject()) {
      Resp.StatusCode = 400;
      Resp.Body = rpcError(RpcParseError, ParseError.empty()
                                              ? "body is not an object"
                                              : ParseError,
                           0);
      return Resp;
    }
    const JsonValue *IdV = Root.find("id");
    int Id = IdV ? IdV->asInt() : 0;
    const JsonValue *MethodV = Root.find("method");
    std::string Method = MethodV ? MethodV->asString() : std::string();

    if (Method == "checkfence.version") {
      JsonObject O;
      O.field("version", versionString());
      O.field("schema", JsonSchemaVersion);
      Resp.Body = rpcResult(O.str(), Id);
      ++Served;
      return Resp;
    }

    static const char *Known[] = {
        "checkfence.check",    "checkfence.matrix",
        "checkfence.explore",  "checkfence.analyze",
        "checkfence.synthesize", "checkfence.weakestModel",
        "checkfence.litmus"};
    bool Recognized = false;
    for (const char *K : Known)
      Recognized |= Method == K;
    if (!Recognized) {
      Resp.StatusCode = 404;
      Resp.Body =
          rpcError(RpcMethodNotFound, "unknown method '" + Method + "'",
                   Id);
      return Resp;
    }

    const JsonValue *Params = Root.find("params");
    Request Req;
    std::string DecodeError;
    if (!Params || !decodeRequest(*Params, Req, DecodeError)) {
      Resp.StatusCode = 400;
      Resp.Body = rpcError(RpcInvalidParams,
                           DecodeError.empty() ? "missing params"
                                               : DecodeError,
                           Id);
      return Resp;
    }

    // Server policy overrides. Thread allowance belongs to the daemon
    // (JobsPerShard), not the client; corpus persistence and trace files
    // write to the server's filesystem, so remote requests cannot direct
    // them (traces travel back in the response envelope instead).
    Req.Jobs = 0;
    Req.CorpusDir.clear();
    Req.TraceFile.clear();
    if (Cfg.MaxRequestSeconds > 0 &&
        (Req.DeadlineSeconds <= 0 ||
         Req.DeadlineSeconds > Cfg.MaxRequestSeconds))
      Req.DeadlineSeconds = Cfg.MaxRequestSeconds;

    if (Stopping.load()) {
      Resp.StatusCode = 503;
      Resp.Body = rpcError(RpcShuttingDown, "server is draining", Id);
      return Resp;
    }

    int Priority = 1;
    if (auto It = Http.Headers.find("x-checkfence-priority");
        It != Http.Headers.end())
      Priority = priorityFromName(It->second);

    // An X-Checkfence-Trace header opts this request into server-side
    // span collection: the spans ride back to the client inside the
    // result envelope and are merged into its local timeline.
    std::shared_ptr<obs::Tracer> ReqTracer;
    if (Http.Headers.count("x-checkfence-trace"))
      ReqTracer = std::make_shared<obs::Tracer>();

    CancelToken Token;
    size_t ShardIdx = shardFor(Req);
    const char *Kind = kindShortName(Req.RequestKind);
    auto J = std::make_unique<Job>();
    J->Priority = Priority;
    J->KindName = Kind;
    J->Tracer = ReqTracer;
    J->Run = [this, ShardIdx, Req = std::move(Req), Id, Token,
              ReqTracer] {
      return runRequest(ShardIdx, Req, Id, Token, ReqTracer.get());
    };
    std::future<std::string> Done = J->Done.get_future();
    J->EnqueuedAt = std::chrono::steady_clock::now();
    if (ReqTracer)
      J->EnqueueNs = ReqTracer->nowNs();

    if (!enqueue(ShardIdx, std::move(J))) {
      ++Rejected;
      obs::logf(obs::LogLevel::Warn, "server",
                "queue full, rejecting %s request (depth %d)", Kind,
                Cfg.QueueDepth);
      Resp.StatusCode = 429;
      Resp.Headers["Retry-After"] = "1";
      Resp.Body = rpcError(RpcQueueFull, "request queue is full", Id);
      return Resp;
    }

    // From here the job WILL run (drain finishes queued work); watch
    // the socket so a vanished client cancels it instead.
    Watcher.watch(Fd, Token);
    Resp.Body = Done.get();
    Watcher.unwatch(Fd);
    return Resp;
  }

  /// Mirror the snapshot-derived values into the registry; the
  /// histograms are updated live by the worker loop and need no mirror.
  void syncRegistry(const ServerStats &S) {
    MServed->set(S.Served);
    MRejected->set(S.Rejected);
    MCancelled->set(S.Cancelled);
    MErrors->set(S.Errors);
    MAccepted->set(S.Accepted);
    MQueued->set(static_cast<int64_t>(S.Queued));
    MInFlight->set(static_cast<int64_t>(S.InFlight));
    MCacheHits->set(S.Cache.Hits);
    MCacheMisses->set(S.Cache.Misses);
    MCacheEntries->set(static_cast<int64_t>(S.Cache.Entries));
    MCacheSeeded->set(S.Cache.BoundsSeeded);
    MCells->set(S.CellsCompleted);
    MScenarios->set(S.ScenariosChecked);
  }

  std::string metricsText() {
    syncRegistry(snapshot());
    return Reg.renderPrometheus();
  }

  std::string statusJson() {
    ServerStats S = snapshot();
    JsonObject Cache;
    Cache.field("entries", static_cast<unsigned long long>(S.Cache.Entries))
        .field("hits", static_cast<unsigned long long>(S.Cache.Hits))
        .field("misses", static_cast<unsigned long long>(S.Cache.Misses))
        .field("boundsSeeded",
               static_cast<unsigned long long>(S.Cache.BoundsSeeded));
    JsonObject O;
    O.field("version", versionString());
    O.field("schema", JsonSchemaVersion);
    O.field("shards", Cfg.Shards);
    O.field("jobsPerShard", Cfg.JobsPerShard);
    O.field("queueDepth", Cfg.QueueDepth);
    O.field("queued", static_cast<unsigned long long>(S.Queued));
    O.field("inFlight", static_cast<unsigned long long>(S.InFlight));
    O.field("accepted", S.Accepted);
    O.field("served", S.Served);
    O.field("rejected", S.Rejected);
    O.field("cancelled", S.Cancelled);
    O.field("errors", S.Errors);
    O.field("cellsCompleted", S.CellsCompleted);
    O.field("scenariosChecked", S.ScenariosChecked);
    O.field("draining", Stopping.load());
    O.raw("cache", Cache.str());
    O.raw("queueWaitSeconds", histogramSummaries(*QueueWaitSeconds));
    O.raw("requestSeconds", histogramSummaries(*RequestSeconds));
    return O.str() + "\n";
  }

  /// One {"count":..,"sumSeconds":..,"p50":..,"p90":..,"p99":..} object
  /// per label that has observations, keyed by label value.
  static std::string histogramSummaries(obs::HistogramFamily &Family) {
    JsonObject Out;
    for (obs::Histogram *H : Family.all()) {
      obs::HistogramSnapshot S = H->snapshot();
      if (S.Count == 0)
        continue;
      JsonObject One;
      One.field("count", static_cast<unsigned long long>(S.Count))
          .fixed("sumSeconds", S.Sum, 6)
          .fixed("p50", S.P50, 6)
          .fixed("p90", S.P90, 6)
          .fixed("p99", S.P99, 6);
      Out.raw(H->labelValue().c_str(), One.str());
    }
    return Out.str();
  }

  ServerStats snapshot() {
    ServerStats S;
    S.Accepted = Accepted.load();
    S.Served = Served.load();
    S.Rejected = Rejected.load();
    S.Cancelled = Cancelled.load();
    S.Errors = Errors.load();
    S.Queued = Queued.load();
    S.InFlight = InFlight.load();
    S.CellsCompleted = Sink.Cells.load();
    S.ScenariosChecked = Sink.Scenarios.load();
    S.Cache = Shared.stats();
    return S;
  }

  void serveConnection(int Fd) {
    HttpRequest Http;
    std::string Error;
    if (readHttpRequest(Fd, Http, Error)) {
      HttpResponse Resp;
      if (Http.Method == "POST" && Http.Path == "/rpc") {
        Resp = handleRpc(Http, Fd);
      } else if (Http.Method == "GET" && Http.Path == "/metrics") {
        Resp.ContentType = "text/plain; version=0.0.4";
        Resp.Body = metricsText();
      } else if (Http.Method == "GET" && Http.Path == "/status") {
        Resp.Body = statusJson();
      } else if (Http.Path == "/rpc" || Http.Path == "/metrics" ||
                 Http.Path == "/status" ||
                 (Http.Method != "GET" && Http.Method != "POST")) {
        // A known endpoint with the wrong verb (or an unknown verb
        // anywhere) is 405, not 404.
        Resp.StatusCode = 405;
        Resp.ContentType = "text/plain";
        Resp.Body = "method not allowed\n";
      } else {
        Resp.StatusCode = 404;
        Resp.ContentType = "text/plain";
        Resp.Body = "not found (try /rpc, /metrics, /status)\n";
      }
      writeHttpResponse(Fd, Resp);
    }
    ::shutdown(Fd, SHUT_RDWR);
    ::close(Fd);
  }

  void listenerLoop() {
    while (!Stopping.load()) {
      struct pollfd P;
      P.fd = ListenFd;
      P.events = POLLIN;
      P.revents = 0;
      if (::poll(&P, 1, 100) <= 0)
        continue;
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        continue;
      ++Accepted;
      reapConnections();
      auto C = std::make_unique<Conn>();
      Conn *Raw = C.get();
      ActiveConns.fetch_add(1);
      Raw->T = std::thread([this, Fd, Raw] {
        serveConnection(Fd);
        Raw->Finished.store(true);
        ActiveConns.fetch_sub(1);
      });
      std::lock_guard<std::mutex> Lock(ConnMu);
      Conns.push_back(std::move(C));
    }
  }

  void reapConnections() {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (auto It = Conns.begin(); It != Conns.end();)
      if ((*It)->Finished.load()) {
        (*It)->T.join();
        It = Conns.erase(It);
      } else {
        ++It;
      }
  }
};

//===----------------------------------------------------------------------===//
// CheckServer
//===----------------------------------------------------------------------===//

CheckServer::CheckServer(ServerConfig Config)
    : Self(std::make_unique<Impl>()) {
  Self->Cfg = std::move(Config);
  if (Self->Cfg.Shards < 1)
    Self->Cfg.Shards = 1;
  if (Self->Cfg.JobsPerShard < 1)
    Self->Cfg.JobsPerShard = 1;
  if (Self->Cfg.QueueDepth < 1)
    Self->Cfg.QueueDepth = 1;
}

CheckServer::~CheckServer() {
  if (Self->Started.load()) {
    requestStop();
    waitStopped();
  }
}

bool CheckServer::start(std::string &Error) {
  if (!Self->Cfg.LogLevel.empty()) {
    obs::LogLevel Level;
    if (!obs::parseLogLevel(Self->Cfg.LogLevel, Level)) {
      Error = "bad log level '" + Self->Cfg.LogLevel +
              "' (want debug|info|warn|error|off)";
      return false;
    }
    obs::setLogLevel(Level);
  }
  if (!Self->Cfg.CachePath.empty())
    Self->Shared.load(Self->Cfg.CachePath); // absent file: start empty

  for (int I = 0; I < Self->Cfg.Shards; ++I) {
    auto S = std::make_unique<Shard>();
    VerifierConfig VC;
    VC.Jobs = Self->Cfg.JobsPerShard;
    VC.SharedCache = Self->Shared;
    S->V = std::make_unique<Verifier>(VC);
    Self->Shards.push_back(std::move(S));
  }

  Self->ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Self->ListenFd < 0) {
    Error = "cannot create listening socket";
    return false;
  }
  int One = 1;
  ::setsockopt(Self->ListenFd, SOL_SOCKET, SO_REUSEADDR, &One,
               sizeof One);
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof Addr);
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Self->Cfg.Port));
  if (::inet_pton(AF_INET, Self->Cfg.BindAddress.c_str(),
                  &Addr.sin_addr) != 1) {
    Error = "bad bind address '" + Self->Cfg.BindAddress + "'";
    ::close(Self->ListenFd);
    Self->ListenFd = -1;
    return false;
  }
  if (::bind(Self->ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof Addr) != 0 ||
      ::listen(Self->ListenFd, 64) != 0) {
    Error = formatString("cannot bind %s:%d",
                         Self->Cfg.BindAddress.c_str(), Self->Cfg.Port);
    ::close(Self->ListenFd);
    Self->ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof Addr;
  ::getsockname(Self->ListenFd,
                reinterpret_cast<struct sockaddr *>(&Addr), &Len);
  Self->BoundPort = ntohs(Addr.sin_port);

  for (auto &S : Self->Shards) {
    Shard *Raw = S.get();
    S->Worker = std::thread([this, Raw] { Self->workerLoop(*Raw); });
  }
  Self->Watcher.start();
  Self->Listener = std::thread([this] { Self->listenerLoop(); });
  Self->Started.store(true);
  obs::logf(obs::LogLevel::Info, "server",
            "listening on %s:%d (%d shards, %d jobs/shard, queue depth %d)",
            Self->Cfg.BindAddress.c_str(), Self->BoundPort,
            Self->Cfg.Shards, Self->Cfg.JobsPerShard, Self->Cfg.QueueDepth);
  return true;
}

int CheckServer::port() const { return Self->BoundPort; }

void CheckServer::requestStop() { Self->Stopping.store(true); }

bool CheckServer::stopRequested() const { return Self->Stopping.load(); }

void CheckServer::waitStopped() {
  if (!Self->Started.load() || Self->Drained.exchange(true))
    return;
  Self->Stopping.store(true);
  obs::logf(obs::LogLevel::Info, "server",
            "draining: %zu queued, %zu in flight",
            Self->Queued.load(), Self->InFlight.load());
  if (Self->Listener.joinable())
    Self->Listener.join();
  // Every live connection either already holds a queued/running job
  // (the workers will finish it) or is about to get a 503; wait for
  // them all to write their responses and exit before letting the
  // workers quit.
  while (Self->ActiveConns.load() > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Self->reapConnections();
  {
    std::lock_guard<std::mutex> Lock(Self->ConnMu);
    for (auto &C : Self->Conns)
      if (C->T.joinable())
        C->T.join();
    Self->Conns.clear();
  }
  Self->WorkersExit.store(true);
  for (auto &S : Self->Shards) {
    S->Cv.notify_all();
    if (S->Worker.joinable())
      S->Worker.join();
  }
  Self->Watcher.stop();
  if (Self->ListenFd >= 0) {
    ::close(Self->ListenFd);
    Self->ListenFd = -1;
  }
  if (!Self->Cfg.CachePath.empty())
    Self->Shared.save(Self->Cfg.CachePath);
  obs::logf(obs::LogLevel::Info, "server",
            "stopped after %llu requests served",
            static_cast<unsigned long long>(Self->Served.load()));
}

ServerStats CheckServer::stats() const { return Self->snapshot(); }
