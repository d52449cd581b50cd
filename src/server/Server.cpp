//===--- Server.cpp - the checkfenced daemon core -----------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
//
// Thread architecture:
//
//   listener ---- accepts, spawns one connection thread per socket
//   connection -- parses HTTP + JSON-RPC, enqueues a Job on the queue,
//                 waits on the job's future while polling its own socket
//                 (a client that hangs up cancels the job's CancelToken),
//                 writes the response
//   worker (xN) - pops Jobs from the one queue by priority and runs them
//                 on the one Verifier (one request at a time per worker;
//                 intra-request parallelism comes from JobsPerShard)
//
// Only a socket's own connection thread ever touches it, so a socket is
// never polled after it is closed.
//
// Admission control happens on the connection thread: when the queued
// count reaches QueueDepth the request is answered 429 + Retry-After
// without ever reaching the queue. Accepted sockets carry a receive
// timeout (ServerReadTimeoutSeconds), so a client that connects and
// never sends a request is dropped instead of holding its connection
// thread. A graceful drain stops the listener, lets the queue empty
// (every queued job has a connection thread waiting on it), joins
// everything, and persists the cache.
//
//===----------------------------------------------------------------------===//

#include "checkfence/Server.h"

#include "checkfence/checkfence.h"

#include "api/ResultCodec.h"
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
#include <sys/time.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace checkfence;
using namespace checkfence::server;
using support::JsonObject;
using support::JsonValue;

namespace {

/// A request that ran at least this long did solver work; the worker
/// hands the heap memory it freed back to the OS afterwards (see
/// workerLoop). Shorter requests, such as cache hits, skip that.
constexpr double TrimAfterSeconds = 0.05;

/// Feeds every request's cell and scenario progress into the registry
/// counters (the throughput half of /metrics).
class MetricsSink : public EventSink {
public:
  void onCellFinished(const CellFinishedEvent &) override { Cells->add(); }
  void onScenarioChecked(const ScenarioCheckedEvent &) override {
    Scenarios->add();
  }
  obs::Counter *Cells = nullptr;
  obs::Counter *Scenarios = nullptr;
};

/// How often a connection thread waiting for its job's response checks
/// whether the client has hung up.
constexpr std::chrono::milliseconds HangUpPollInterval{50};

/// True when the peer of \p Fd has closed or reset the connection. The
/// protocol is one request per connection, so a readable socket whose
/// request was already read means EOF; the peek tells it from stray
/// bytes.
bool peerHungUp(int Fd) {
  struct pollfd P;
  P.fd = Fd;
  P.events = POLLIN;
  P.revents = 0;
  if (::poll(&P, 1, 0) <= 0)
    return false;
  if (P.revents & (POLLERR | POLLHUP | POLLNVAL))
    return true;
  char C;
  return (P.revents & POLLIN) &&
         ::recv(Fd, &C, 1, MSG_PEEK | MSG_DONTWAIT) == 0;
}

/// One queued request: the closure runs on a worker and renders
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

} // namespace

//===----------------------------------------------------------------------===//
// CheckServer::Impl
//===----------------------------------------------------------------------===//

struct CheckServer::Impl {
  ServerConfig Cfg;
  /// The one Verifier every worker runs on (its result cache is the only
  /// state requests share). Built by the CheckServer constructor.
  std::unique_ptr<Verifier> V;
  MetricsSink Sink;

  int ListenFd = -1;
  int BoundPort = 0;
  std::thread Listener;

  std::atomic<bool> Started{false};
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Drained{false};

  // The work queue: one deque per priority class (0 high, 1 normal,
  // 2 low), all guarded by QueueMu.
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<std::unique_ptr<Job>> Queues[3];
  /// Set only after every connection thread has exited: a worker must
  /// never quit while a connection could still enqueue, or that job
  /// (and its waiting connection) would hang forever.
  bool WorkersExit = false;
  // Written under QueueMu, read lock-free by snapshot().
  std::atomic<size_t> Queued{0}, InFlight{0};
  /// The worker pool: Cfg.Shards threads popping the queue.
  std::vector<std::thread> Workers;

  // Metrics registry (one per server instance so parallel in-process
  // servers - the test suites boot several - stay isolated). The
  // counters are the source of truth for snapshot(); only the queue
  // gauges and the cache series are mirrored in at scrape time.
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
                         "requests waiting for a worker");
    MInFlight = &Reg.gauge("checkfence_inflight",
                           "requests running on a worker");
    MCacheHits =
        &Reg.counter("checkfence_cache_hits_total", "result cache hits");
    MCacheMisses = &Reg.counter("checkfence_cache_misses_total",
                                "result cache misses");
    MCacheEntries =
        &Reg.gauge("checkfence_cache_entries", "result cache entries");
    MCacheSeeded =
        &Reg.counter("checkfence_cache_bounds_seeded_total",
                     "runs whose bounds were seeded from the cache");
    Sink.Cells = MCells = &Reg.counter("checkfence_cells_completed_total",
                                       "matrix cells completed");
    Sink.Scenarios = MScenarios =
        &Reg.counter("checkfence_scenarios_checked_total",
                     "explore scenarios checked");
    RequestSeconds = &Reg.histogramFamily(
        "checkfence_request_seconds",
        "request latency on a worker, by request kind", "kind",
        obs::latencyBuckets());
    QueueWaitSeconds = &Reg.histogramFamily(
        "checkfence_queue_wait_seconds",
        "time from admission to worker pickup, by priority class",
        "priority", obs::latencyBuckets());
    // Pre-create the label values so every series renders (as zeros)
    // from the first scrape and the exposition shape is stable.
    for (const RequestKindName &N : RequestKinds)
      RequestSeconds->withLabel(N.Label);
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
  // The work queue
  //===------------------------------------------------------------===//

  /// False when the queue is full (admission rejection).
  bool enqueue(std::unique_ptr<Job> J) {
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      if (Queued.load() >= static_cast<size_t>(Cfg.QueueDepth))
        return false;
      Queued.fetch_add(1);
      Queues[J->Priority].push_back(std::move(J));
    }
    QueueCv.notify_one();
    return true;
  }

  void workerLoop() {
    while (true) {
      std::unique_ptr<Job> J;
      {
        std::unique_lock<std::mutex> Lock(QueueMu);
        QueueCv.wait(Lock, [&] { return WorkersExit || Queued.load() > 0; });
        for (auto &Q : Queues)
          if (!Q.empty()) {
            J = std::move(Q.front());
            Q.pop_front();
            break;
          }
        if (!J)
          return; // drained: queue empty and no more arrivals
        Queued.fetch_sub(1);
        InFlight.fetch_add(1);
      }
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
#if defined(__GLIBC__)
      // Any worker may run any request, so without this every worker's
      // malloc arena would keep the peak of the largest check it ever
      // ran, and RSS would follow the traffic history rather than the
      // live requests. The trim costs about half a millisecond.
      if (RunSeconds >= TrimAfterSeconds)
        malloc_trim(0);
#endif
    }
  }

  //===------------------------------------------------------------===//
  // RPC dispatch (runs on a worker)
  //===------------------------------------------------------------===//

  std::string runRequest(const Request &Req, int Id, CancelToken Token,
                         obs::Tracer *Tracer) {
    std::string Payload;
    bool WasCancelled = false;
    {
    // Install the per-request tracer for this worker; the Verifier's
    // fan-out points propagate it to any threads they spawn. The scope
    // closes the dispatch span before the events are serialized below.
    obs::TraceContext TC(Tracer);
    obs::Span DispatchSpan("server", [&] {
      return std::string("dispatch:") + requestKind(Req.RequestKind).Label;
    });
    switch (Req.RequestKind) {
    case Request::Kind::Check: {
      Result R = V->check(Req, &Sink, Token);
      WasCancelled = R.Verdict == Status::Cancelled;
      if (R.Verdict == Status::Error)
        MErrors->add();
      Payload = api::encodeResult(R);
      break;
    }
    case Request::Kind::Matrix:
    case Request::Kind::Sweep: {
      Report R = V->matrix(Req, &Sink, Token);
      WasCancelled = R.count(Status::Cancelled) > 0;
      if (!R.ok())
        MErrors->add();
      Payload = api::encodeReport(R);
      break;
    }
    case Request::Kind::Analyze: {
      AnalysisOutcome A = V->analyze(Req);
      JsonObject O;
      O.field("ok", A.Ok);
      O.field("error", A.Error);
      if (A.Ok) {
        O.field("table", A.table());
        O.field("json", A.json());
      } else {
        MErrors->add();
      }
      Payload = O.str();
      break;
    }
    case Request::Kind::Explore: {
      ExploreOutcome E = V->explore(Req, &Sink, Token);
      WasCancelled = E.cancelled();
      if (!E.ok())
        MErrors->add();
      Payload = E.json(true);
      break;
    }
    case Request::Kind::Synthesis: {
      SynthOutcome S = V->synthesize(Req, &Sink, Token);
      WasCancelled = S.Cancelled;
      Payload = encodeSynthOutcome(S);
      break;
    }
    case Request::Kind::WeakestModel: {
      WeakestOutcome W = V->weakestModels(Req, &Sink, Token);
      WasCancelled = W.Cancelled;
      if (!W.Ok)
        MErrors->add();
      Payload = encodeWeakestOutcome(W);
      break;
    }
    case Request::Kind::Litmus: {
      LitmusOutcome L = V->observable(Req);
      if (!L.Ok)
        MErrors->add();
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
      MCancelled->add();
    MServed->add();
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
      MServed->add();
      return Resp;
    }

    bool Recognized = false;
    for (const RequestKindName &N : RequestKinds)
      Recognized |= Method == N.Method;
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
    const RequestKindName &Kind = requestKind(Req.RequestKind);
    if (Method != Kind.Method) {
      Resp.StatusCode = 400;
      Resp.Body = rpcError(RpcInvalidParams,
                           "request kind '" + std::string(Kind.Wire) +
                               "' is not served by method '" + Method +
                               "' (use '" + Kind.Method + "')",
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
    auto J = std::make_unique<Job>();
    J->Priority = Priority;
    J->KindName = Kind.Label;
    J->Tracer = ReqTracer;
    J->Run = [this, Req = std::move(Req), Id, Token, ReqTracer] {
      return runRequest(Req, Id, Token, ReqTracer.get());
    };
    std::future<std::string> Done = J->Done.get_future();
    J->EnqueuedAt = std::chrono::steady_clock::now();
    if (ReqTracer)
      J->EnqueueNs = ReqTracer->nowNs();

    if (!enqueue(std::move(J))) {
      MRejected->add();
      obs::logf(obs::LogLevel::Warn, "server",
                "queue full, rejecting %s request (depth %d)", Kind.Label,
                Cfg.QueueDepth);
      Resp.StatusCode = 429;
      Resp.Headers["Retry-After"] = "1";
      Resp.Body = rpcError(RpcQueueFull, "request queue is full", Id);
      return Resp;
    }

    // From here the job WILL run (drain finishes queued work). While it
    // is queued or running, a client that hangs up cancels it, so an
    // abandoned request stops consuming a worker at its next phase
    // boundary.
    while (Done.wait_for(HangUpPollInterval) != std::future_status::ready)
      if (peerHungUp(Fd)) {
        Token.cancel();
        break;
      }
    Resp.Body = Done.get();
    return Resp;
  }

  /// Mirror the values that live outside the registry - the queue
  /// counts and the Verifier's CacheStats - into it. Counters and
  /// histograms are updated live and need no mirror.
  void syncRegistry(const ServerStats &S) {
    MQueued->set(static_cast<int64_t>(S.Queued));
    MInFlight->set(static_cast<int64_t>(S.InFlight));
    MCacheHits->set(S.Cache.Hits);
    MCacheMisses->set(S.Cache.Misses);
    MCacheEntries->set(static_cast<int64_t>(S.Cache.Entries));
    MCacheSeeded->set(S.Cache.BoundsSeeded);
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
    S.Accepted = MAccepted->value();
    S.Served = MServed->value();
    S.Rejected = MRejected->value();
    S.Cancelled = MCancelled->value();
    S.Errors = MErrors->value();
    S.Queued = Queued.load();
    S.InFlight = InFlight.load();
    S.CellsCompleted = MCells->value();
    S.ScenariosChecked = MScenarios->value();
    S.Cache = V->cacheStats();
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
      struct timeval Timeout;
      Timeout.tv_sec = ServerReadTimeoutSeconds;
      Timeout.tv_usec = 0;
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof Timeout);
      MAccepted->add();
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
  VerifierConfig VC;
  VC.Jobs = Self->Cfg.JobsPerShard;
  Self->V = std::make_unique<Verifier>(VC);
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
    Self->V->loadCache(Self->Cfg.CachePath); // absent file: start empty

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

  for (int I = 0; I < Self->Cfg.Shards; ++I)
    Self->Workers.emplace_back([this] { Self->workerLoop(); });
  Self->Listener = std::thread([this] { Self->listenerLoop(); });
  Self->Started.store(true);
  obs::logf(obs::LogLevel::Info, "server",
            "listening on %s:%d (%d workers, %d jobs/request, queue depth %d)",
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
  {
    std::lock_guard<std::mutex> Lock(Self->QueueMu);
    Self->WorkersExit = true;
  }
  Self->QueueCv.notify_all();
  for (std::thread &W : Self->Workers)
    W.join();
  if (Self->ListenFd >= 0) {
    ::close(Self->ListenFd);
    Self->ListenFd = -1;
  }
  if (!Self->Cfg.CachePath.empty() &&
      !Self->V->saveCache(Self->Cfg.CachePath))
    obs::logf(obs::LogLevel::Warn, "server",
              "cache not saved: %s is not writable or not a cache",
              Self->Cfg.CachePath.c_str());
  obs::logf(obs::LogLevel::Info, "server",
            "stopped after %llu requests served",
            static_cast<unsigned long long>(Self->MServed->value()));
}

ServerStats CheckServer::stats() const { return Self->snapshot(); }
