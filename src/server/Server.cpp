//===--- Server.cpp - the checkfenced daemon core -----------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
//
// Thread architecture (Shards + 1 threads, however many clients):
//
//   I/O thread --- one poll() loop owns the listening socket and every
//                  client socket. It accepts, frames each request as its
//                  bytes arrive, decodes JSON-RPC and either answers at
//                  once (version, 4xx, 429, 503, /metrics, /status) or
//                  admits a Job to the queue; it cancels the Job of a
//                  client that hangs up and writes responses without
//                  blocking. The nearest client deadline
//                  (ServerReadTimeoutSeconds) is the poll timeout.
//   worker (xN) -- pops Jobs from the one FIFO queue, runs each on the one
//                  Verifier, stores the reply on the Job and writes a
//                  byte to the wake pipe.
//
// A graceful drain closes the listening socket, closes each client that
// has sent no byte yet and serves the other connected clients to the
// end; then the workers empty the queue (jobs whose clients hung up
// still run, cancelled), and the cache is persisted.
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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
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

using Clock = std::chrono::steady_clock;

/// One admitted request. The I/O thread holds it while its client
/// waits; the worker that runs it stores the reply and sets Done.
struct Job {
  Request Req;
  int Id = 0; ///< the JSON-RPC id
  /// Cancelled when the client hangs up before its reply is sent.
  CancelToken Token;
  /// Admission time, for the queue-wait histogram.
  Clock::time_point EnqueuedAt;
  /// Per-request tracer (X-Checkfence-Trace round-trip); null for the
  /// common untraced case.
  std::shared_ptr<obs::Tracer> Tracer;
  /// Enqueue instant in the tracer's clock, for the queue_wait span.
  uint64_t EnqueueNs = 0;
  /// The JSON-RPC response body, written by the worker before Done.
  std::string Reply;
  std::atomic<bool> Done{false};
};

Clock::time_point idleDeadline() {
  return Clock::now() + std::chrono::seconds(ServerReadTimeoutSeconds);
}

/// One accepted connection; only the I/O thread touches it.
struct Client {
  int Fd = -1; ///< -1 once closed
  HttpFramer In;
  /// The admitted request while it is queued or running.
  std::shared_ptr<Job> J;
  /// The response; once set, the loop only writes.
  std::string Out;
  size_t Sent = 0;
  /// Dropped at this instant; max() while J is set.
  Clock::time_point Deadline = idleDeadline();
};

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

bool wouldBlock() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
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

  int ListenFd = -1; ///< closed by the I/O thread when the drain begins
  int BoundPort = 0;
  int Wake[2] = {-1, -1}; ///< the pipe that wakes the I/O thread's poll()
  std::vector<Client> Clients;

  std::atomic<bool> Started{false};
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Drained{false};

  // The work queue, first in first out, guarded by QueueMu.
  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<Job>> Queue;
  /// Set only after the I/O thread has exited: a worker must never quit
  /// while a client could still be admitted, or that job (and its
  /// waiting client) would hang forever.
  bool WorkersExit = false;
  // Written under QueueMu, read lock-free by snapshot().
  std::atomic<size_t> Queued{0}, InFlight{0};
  /// The worker pool: Cfg.Shards threads popping the queue.
  std::vector<std::thread> Workers;
  std::thread Io;

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
        "time from admission to worker pickup, by request kind", "kind",
        obs::latencyBuckets());
    // Pre-create the label values so every series renders (as zeros)
    // from the first scrape and the exposition shape is stable.
    for (const RequestKindName &N : RequestKinds) {
      RequestSeconds->withLabel(N.Label);
      QueueWaitSeconds->withLabel(N.Label);
    }
  }

  ~Impl() {
    for (int Fd : Wake)
      if (Fd >= 0)
        ::close(Fd);
  }

  //===------------------------------------------------------------===//
  // The work queue
  //===------------------------------------------------------------===//

  /// Wakes the I/O thread's poll(). A full pipe holds a wake-up already.
  void wake() { [[maybe_unused]] ssize_t N = ::write(Wake[1], "", 1); }

  /// False when the queue is full (admission rejection).
  bool enqueue(std::shared_ptr<Job> J) {
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      if (Queued.load() >= static_cast<size_t>(Cfg.QueueDepth))
        return false;
      Queued.fetch_add(1);
      Queue.push_back(std::move(J));
    }
    QueueCv.notify_one();
    return true;
  }

  void workerLoop() {
    while (true) {
      std::shared_ptr<Job> J;
      {
        std::unique_lock<std::mutex> Lock(QueueMu);
        QueueCv.wait(Lock, [&] { return WorkersExit || !Queue.empty(); });
        if (Queue.empty())
          return; // drained: queue empty and no more arrivals
        J = std::move(Queue.front());
        Queue.pop_front();
        Queued.fetch_sub(1);
        InFlight.fetch_add(1);
      }
      const char *Kind = requestKind(J->Req.RequestKind).Label;
      double Waited =
          std::chrono::duration<double>(Clock::now() - J->EnqueuedAt)
              .count();
      QueueWaitSeconds->withLabel(Kind).observe(Waited);
      if (J->Tracer)
        J->Tracer->record("server", "queue_wait", J->EnqueueNs,
                          J->Tracer->nowNs());
      Clock::time_point RunStart = Clock::now();
      J->Reply = runRequest(J->Req, J->Id, J->Token, J->Tracer.get());
      double RunSeconds =
          std::chrono::duration<double>(Clock::now() - RunStart).count();
      // Observe and log before the reply is released: a client that
      // has received its response is guaranteed to see this request in
      // a subsequent /metrics scrape.
      RequestSeconds->withLabel(Kind).observe(RunSeconds);
      obs::logf(obs::LogLevel::Info, "server",
                "%s finished in %.3fs (waited %.3fs)", Kind, RunSeconds,
                Waited);
      if (Cfg.SlowRequestSeconds > 0 &&
          RunSeconds > Cfg.SlowRequestSeconds)
        obs::logf(obs::LogLevel::Warn, "server",
                  "slow request: %s took %.3fs (threshold %.3fs)",
                  Kind, RunSeconds, Cfg.SlowRequestSeconds);
      InFlight.fetch_sub(1);
      J->Done.store(true);
      wake();
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
  // JSON-RPC decoding and admission (runs on the I/O thread)
  //===------------------------------------------------------------===//

  /// The admitted job, or null with \p Resp set to the answer.
  std::shared_ptr<Job> handleRpc(const HttpFramer &Http, HttpResponse &Resp) {
    JsonValue Root;
    std::string ParseError;
    if (!support::parseJson(Http.Body, Root, ParseError) ||
        !Root.isObject()) {
      Resp.StatusCode = 400;
      Resp.Body = rpcError(RpcParseError, ParseError.empty()
                                              ? "body is not an object"
                                              : ParseError,
                           0);
      return nullptr;
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
      return nullptr;
    }

    bool Recognized = false;
    for (const RequestKindName &N : RequestKinds)
      Recognized |= Method == N.Method;
    if (!Recognized) {
      Resp.StatusCode = 404;
      Resp.Body =
          rpcError(RpcMethodNotFound, "unknown method '" + Method + "'",
                   Id);
      return nullptr;
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
      return nullptr;
    }
    const RequestKindName &Kind = requestKind(Req.RequestKind);
    if (Method != Kind.Method) {
      Resp.StatusCode = 400;
      Resp.Body = rpcError(RpcInvalidParams,
                           "request kind '" + std::string(Kind.Wire) +
                               "' is not served by method '" + Method +
                               "' (use '" + Kind.Method + "')",
                           Id);
      return nullptr;
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
      return nullptr;
    }

    auto J = std::make_shared<Job>();
    J->Req = std::move(Req);
    J->Id = Id;
    J->EnqueuedAt = Clock::now();
    // An X-Checkfence-Trace header opts this request into server-side
    // span collection: the spans ride back to the client inside the
    // result envelope and are merged into its local timeline.
    if (Http.Headers.count("x-checkfence-trace")) {
      J->Tracer = std::make_shared<obs::Tracer>();
      J->EnqueueNs = J->Tracer->nowNs();
    }

    if (!enqueue(J)) {
      MRejected->add();
      obs::logf(obs::LogLevel::Warn, "server",
                "queue full, rejecting %s request (depth %d)", Kind.Label,
                Cfg.QueueDepth);
      Resp.StatusCode = 429;
      Resp.Headers["Retry-After"] = "1";
      Resp.Body = rpcError(RpcQueueFull, "request queue is full", Id);
      return nullptr;
    }

    // From here the job WILL run (drain finishes queued work). While it
    // is queued or running, a client that hangs up cancels it (see
    // readFrom), so an abandoned request stops consuming a worker at
    // its next phase boundary.
    return J;
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

  //===------------------------------------------------------------===//
  // The I/O thread
  //===------------------------------------------------------------===//

  void ioLoop() {
    std::vector<struct pollfd> Fds;
    while (true) {
      Clock::time_point Now = Clock::now(), Next = Clock::time_point::max();
      if (Stopping.load() && ListenFd >= 0) {
        ::close(ListenFd);
        ListenFd = -1;
        // A client that has sent nothing by now has no request for the
        // drain to finish: read what has arrived, then drop the silent.
        for (Client &C : Clients)
          if (!C.J && C.Out.empty() && C.In.empty()) {
            readFrom(C);
            if (C.Fd >= 0 && !C.J && C.Out.empty() && C.In.empty())
              C.Deadline = Now;
          }
      }
      for (Client &C : Clients)
        if (C.J && C.J->Done.load()) {
          HttpResponse Resp;
          Resp.Body = std::move(C.J->Reply);
          C.J.reset();
          respond(C, Resp);
        } else if (C.Deadline <= Now) {
          closeClient(C);
        }
      Clients.erase(std::remove_if(Clients.begin(), Clients.end(),
                                   [](const Client &C) { return C.Fd < 0; }),
                    Clients.end());
      if (Stopping.load() && Clients.empty())
        return;

      // poll() skips the negative ListenFd of a draining server.
      Fds.assign({{Wake[0], POLLIN, 0}, {ListenFd, POLLIN, 0}});
      for (const Client &C : Clients) {
        Fds.push_back({C.Fd, short(C.Out.empty() ? POLLIN : POLLOUT), 0});
        Next = std::min(Next, C.Deadline);
      }
      auto Wait = std::chrono::ceil<std::chrono::milliseconds>(Next - Now);
      int TimeoutMs = Next == Clock::time_point::max() ? -1 : int(Wait.count());
      if (::poll(Fds.data(), Fds.size(), TimeoutMs) < 0)
        continue; // EINTR
      char Drain[64];
      if (Fds[0].revents)
        while (::read(Wake[0], Drain, sizeof Drain) > 0) {
        }
      for (size_t I = 2; I < Fds.size(); ++I) {
        Client &C = Clients[I - 2];
        if (Fds[I].revents && C.Out.empty())
          readFrom(C);
        else if (Fds[I].revents)
          flush(C);
      }
      if (Fds[1].revents)
        acceptClients();
    }
  }

  void acceptClients() {
    for (int Fd; (Fd = ::accept(ListenFd, nullptr, nullptr)) >= 0;) {
      MAccepted->add();
      Clients.emplace_back();
      Clients.back().Fd = Fd;
      if (!setNonBlocking(Fd))
        closeClient(Clients.back());
    }
  }

  void closeClient(Client &C) {
    ::close(C.Fd);
    C.Fd = -1;
  }

  /// One read from a client. A hang-up cancels its job; bytes after a
  /// complete request are dropped.
  void readFrom(Client &C) {
    char Chunk[65536];
    ssize_t N = ::recv(C.Fd, Chunk, sizeof Chunk, 0);
    if (N < 0 && wouldBlock())
      return;
    if (N <= 0) {
      if (C.J)
        C.J->Token.cancel();
      closeClient(C);
      return;
    }
    if (C.J)
      return;
    C.Deadline = idleDeadline();
    HttpFramer::Status S = C.In.feed(Chunk, static_cast<size_t>(N));
    if (S == HttpFramer::Status::Malformed)
      closeClient(C);
    else if (S == HttpFramer::Status::Complete)
      route(C);
  }

  /// Answers the request \p C has framed, or admits its job.
  void route(Client &C) {
    HttpFramer Http = std::move(C.In);
    std::istringstream RequestLine(Http.StartLine);
    std::string Method, Path;
    if (!(RequestLine >> Method >> Path)) {
      closeClient(C);
      return;
    }
    HttpResponse Resp;
    if (Method == "POST" && Path == "/rpc") {
      C.J = handleRpc(Http, Resp);
      if (C.J) {
        C.Deadline = Clock::time_point::max();
        return;
      }
    } else if (Method == "GET" && Path == "/metrics") {
      Resp.ContentType = "text/plain; version=0.0.4";
      Resp.Body = metricsText();
    } else if (Method == "GET" && Path == "/status") {
      Resp.Body = statusJson();
    } else if (Path == "/rpc" || Path == "/metrics" || Path == "/status" ||
               (Method != "GET" && Method != "POST")) {
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
    respond(C, Resp);
  }

  void respond(Client &C, const HttpResponse &Resp) {
    C.Out = renderHttpResponse(Resp);
    C.Deadline = idleDeadline();
    flush(C);
  }

  /// Writes what the socket takes now; closes the connection once the
  /// whole response is out, or on an error.
  void flush(Client &C) {
    while (C.Sent < C.Out.size()) {
      ssize_t N = sendNoSignal(C.Fd, C.Out.data() + C.Sent,
                               C.Out.size() - C.Sent);
      if (N < 0 && wouldBlock())
        return;
      if (N <= 0) {
        closeClient(C);
        return;
      }
      C.Sent += static_cast<size_t>(N);
      C.Deadline = idleDeadline();
    }
    ::shutdown(C.Fd, SHUT_RDWR);
    closeClient(C);
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
  if (!setNonBlocking(Self->ListenFd) || ::pipe(Self->Wake) != 0 ||
      !setNonBlocking(Self->Wake[0]) || !setNonBlocking(Self->Wake[1])) {
    Error = "cannot set up the I/O loop";
    ::close(Self->ListenFd);
    Self->ListenFd = -1;
    return false;
  }

  for (int I = 0; I < Self->Cfg.Shards; ++I)
    Self->Workers.emplace_back([this] { Self->workerLoop(); });
  Self->Io = std::thread([this] { Self->ioLoop(); });
  Self->Started.store(true);
  obs::logf(obs::LogLevel::Info, "server",
            "listening on %s:%d (%d workers, %d jobs/request, queue depth %d)",
            Self->Cfg.BindAddress.c_str(), Self->BoundPort,
            Self->Cfg.Shards, Self->Cfg.JobsPerShard, Self->Cfg.QueueDepth);
  return true;
}

int CheckServer::port() const { return Self->BoundPort; }

void CheckServer::requestStop() {
  Self->Stopping.store(true);
  Self->wake();
}

bool CheckServer::stopRequested() const { return Self->Stopping.load(); }

void CheckServer::waitStopped() {
  if (!Self->Started.load() || Self->Drained.exchange(true))
    return;
  Self->Stopping.store(true);
  obs::logf(obs::LogLevel::Info, "server",
            "draining: %zu queued, %zu in flight",
            Self->Queued.load(), Self->InFlight.load());
  Self->wake();
  // The I/O thread exits once every connected client has its response
  // or has gone; then no job can be admitted, and the workers may quit
  // as soon as the queue is empty.
  Self->Io.join();
  {
    std::lock_guard<std::mutex> Lock(Self->QueueMu);
    Self->WorkersExit = true;
  }
  Self->QueueCv.notify_all();
  for (std::thread &W : Self->Workers)
    W.join();
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
