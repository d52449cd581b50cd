//===--- ServerTests.cpp - the checkfenced daemon -----------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Covers the verification server (include/checkfence/Server.h) and its
// client (Remote.h) against an in-process daemon on an ephemeral port:
// remote-vs-local result identity for every request kind, admission
// control (429 + Retry-After), per-request deadline clamping, client
// disconnect cancellation, the /metrics and /status surfaces, graceful
// drain, and cross-restart cache persistence.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "server/Http.h"
#include "server/Wire.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

using namespace checkfence;
using namespace checkfence::server;

namespace {

std::string urlFor(const CheckServer &S) {
  return "http://127.0.0.1:" + std::to_string(S.port());
}

/// A raw client connection that can leave a request pending (the decoded
/// clients always block for the response; admission and disconnect tests
/// need sockets that don't).
struct RawConn {
  int Fd = -1;

  bool connectTo(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }

  bool sendRpc(const std::string &Method, const Request &Req, int Id) {
    std::string Body = rpcRequest(Method, encodeRequest(Req), Id);
    std::string Msg = "POST /rpc HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                      std::to_string(Body.size()) + "\r\n\r\n" + Body;
    return ::send(Fd, Msg.data(), Msg.size(), 0) ==
           static_cast<ssize_t>(Msg.size());
  }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  ~RawConn() { close(); }
};

/// Polls /status until \p Pred(status body) holds (or ~5s elapse).
template <typename Pred>
bool waitStatus(const CheckServer &S, Pred P) {
  for (int I = 0; I < 250; ++I) {
    HttpResult H = httpRequest("127.0.0.1", S.port(), "GET", "/status",
                               "", {});
    if (H.Ok && P(H.Body))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

//===----------------------------------------------------------------------===//
// Reachability and the version probe
//===----------------------------------------------------------------------===//

TEST(Server, StartsOnEphemeralPortAndAnswersVersion) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  EXPECT_GT(S.port(), 0);

  RemoteVerifier RV(urlFor(S));
  std::string Version;
  int Schema = 0;
  RemoteStatus St = RV.version(Version, Schema);
  ASSERT_TRUE(St) << St.Error;
  EXPECT_EQ(Version, versionString());
  EXPECT_EQ(Schema, JsonSchemaVersion);
}

TEST(Server, ConnectionRefusedIsTransportError) {
  // Port 1 on loopback is never a checkfenced.
  RemoteVerifier RV("http://127.0.0.1:1");
  std::string Version;
  int Schema = 0;
  RemoteStatus St = RV.version(Version, Schema);
  EXPECT_FALSE(St);
  EXPECT_FALSE(St.Error.empty());
  EXPECT_EQ(St.HttpStatus, 0);
}

TEST(Server, BadUrlFailsWithoutConnecting) {
  RemoteVerifier RV("https://127.0.0.1:1");
  std::string Version;
  int Schema = 0;
  EXPECT_FALSE(RV.version(Version, Schema));
}

//===----------------------------------------------------------------------===//
// Remote results match local runs (the byte-identity contract)
//===----------------------------------------------------------------------===//

struct IdentityFixture : ::testing::Test {
  ServerConfig Cfg;
  CheckServer S{[] {
    ServerConfig C;
    C.Port = 0;
    C.Shards = 2;
    return C;
  }()};
  Verifier Local;

  void SetUp() override {
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
  }
};

TEST_F(IdentityFixture, CheckRoundTripsEveryField) {
  Request Req = Request::check("snark", "D0").model("sc");
  Result L = Local.check(Req);

  RemoteVerifier RV(urlFor(S));
  Result R;
  RemoteStatus St = RV.check(Req, R);
  ASSERT_TRUE(St) << St.Error;

  EXPECT_EQ(R.Verdict, L.Verdict);
  EXPECT_EQ(R.Message, L.Message);
  EXPECT_EQ(R.Impl, L.Impl);
  EXPECT_EQ(R.Test, L.Test);
  EXPECT_EQ(R.Model, L.Model);
  EXPECT_EQ(R.Observations, L.Observations);
  EXPECT_EQ(R.HasCounterexample, L.HasCounterexample);
  EXPECT_EQ(R.CounterexampleTrace, L.CounterexampleTrace);
  EXPECT_EQ(R.CounterexampleColumns, L.CounterexampleColumns);
  EXPECT_EQ(R.CounterexampleObservation, L.CounterexampleObservation);
  EXPECT_EQ(R.Stats.ObservationCount, L.Stats.ObservationCount);
  EXPECT_EQ(R.Stats.UnrolledInstrs, L.Stats.UnrolledInstrs);
  EXPECT_EQ(R.Stats.SatVars, L.Stats.SatVars);
  // The timing-free JSON - the schema consumers diff - is byte-equal.
  EXPECT_EQ(R.json(false), L.json(false));
}

TEST_F(IdentityFixture, MatrixReportMatchesLocal) {
  Request Req = Request::matrix()
                    .impls({"ms2"})
                    .tests({"T0"})
                    .models({"sc", "tso"});
  Report L = Local.matrix(Req);
  ASSERT_TRUE(L.ok());

  RemoteVerifier RV(urlFor(S));
  RemoteReport R;
  RemoteStatus St = RV.matrix(Req, R);
  ASSERT_TRUE(St) << St.Error;
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.JsonNoTimings, L.json(false));
  EXPECT_EQ(R.AllCompleted, L.allCompleted());
  EXPECT_EQ(R.CellCount, L.cellCount());
  EXPECT_EQ(R.ErrorCells, L.count(Status::Error));
  EXPECT_EQ(R.CancelledCells, L.count(Status::Cancelled));
}

TEST_F(IdentityFixture, AnalysisMatchesLocalByteForByte) {
  Request Req = Request::check("ms2", "T0");
  Req.RequestKind = Request::Kind::Analyze;
  AnalysisOutcome L = Local.analyze(Req);
  ASSERT_TRUE(L.Ok) << L.Error;

  RemoteVerifier RV(urlFor(S));
  RemoteAnalysis R;
  RemoteStatus St = RV.analyze(Req, R);
  ASSERT_TRUE(St) << St.Error;
  ASSERT_TRUE(R.Ok) << R.Error;
  // The analysis is static: no timings anywhere, both surfaces must be
  // byte-identical.
  EXPECT_EQ(R.Table, L.table());
  EXPECT_EQ(R.Json, L.json());
}

TEST_F(IdentityFixture, ExploreMatchesLocal) {
  Request Req = Request::check();
  Req.RequestKind = Request::Kind::Explore;
  Req.seed(7).budget(10);
  ExploreOutcome L = Local.explore(Req);
  ASSERT_TRUE(L.ok()) << L.error();

  RemoteVerifier RV(urlFor(S));
  RemoteExplore R;
  RemoteStatus St = RV.explore(Req, R);
  ASSERT_TRUE(St) << St.Error;
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Seed, L.seed());
  EXPECT_EQ(R.Generated, L.generated());
  EXPECT_EQ(R.Run, L.run());
  EXPECT_EQ(R.Divergences.size(), L.divergences().size());
  EXPECT_EQ(R.JsonNoTimings, L.json(false));
}

TEST_F(IdentityFixture, SynthesisOutcomeRoundTrips) {
  Request Req = Request::check("ms2", "T0").model("sc");
  Req.RequestKind = Request::Kind::Synthesis;
  SynthOutcome L = Local.synthesize(Req);

  RemoteVerifier RV(urlFor(S));
  RemoteSynth R;
  RemoteStatus St = RV.synthesize(Req, R);
  ASSERT_TRUE(St) << St.Error;
  EXPECT_EQ(R.Outcome.Success, L.Success);
  EXPECT_EQ(R.Outcome.Cancelled, L.Cancelled);
  EXPECT_EQ(R.Outcome.Message, L.Message);
  EXPECT_EQ(R.Outcome.Fences.size(), L.Fences.size());
  EXPECT_EQ(R.Outcome.Log, L.Log);
}

//===----------------------------------------------------------------------===//
// Server policy
//===----------------------------------------------------------------------===//

TEST(ServerPolicy, MaxRequestSecondsClampsMissingDeadline) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.MaxRequestSeconds = 1e-9; // expires at the first phase boundary
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  RemoteVerifier RV(urlFor(S));
  Result R;
  // The client sent no deadline at all; the server imposes its own.
  RemoteStatus St = RV.check(Request::check("ms2", "Tpc2").model("sc"), R);
  ASSERT_TRUE(St) << St.Error;
  EXPECT_EQ(R.Verdict, Status::Cancelled);
  EXPECT_EQ(R.Message, "deadline exceeded");
  EXPECT_EQ(S.stats().Cancelled, 1u);
}

TEST(ServerPolicy, ShardsShareOneResultCache) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.Shards = 2;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  Request Req = Request::check("ms2", "T0").model("tso");
  RemoteVerifier RV(urlFor(S));
  Result First, Second;
  ASSERT_TRUE(RV.check(Req, First));
  ASSERT_TRUE(RV.check(Req, Second));
  EXPECT_FALSE(First.FromCache);
  EXPECT_TRUE(Second.FromCache);
  // Cache hits strip timings deterministically: both runs report the
  // same timing-free JSON.
  EXPECT_EQ(First.json(false), Second.json(false));
  ServerStats Stats = S.stats();
  EXPECT_GE(Stats.Cache.Hits, 1u);
  EXPECT_GE(Stats.Cache.Entries, 1u);
}

//===----------------------------------------------------------------------===//
// Admission control and disconnect cancellation
//===----------------------------------------------------------------------===//

TEST(ServerQueue, FullQueueRejectsWith429AndDisconnectCancels) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.Shards = 1;
  Cfg.QueueDepth = 1;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  // Occupy the single shard with an explore run big enough to outlast
  // the admission checks below (explore polls its cancel token between
  // scenarios, so the hang-up at the end keeps the test bounded).
  Request Slow = Request::check();
  Slow.RequestKind = Request::Kind::Explore;
  Slow.seed(1).budget(5000);
  RawConn C1;
  ASSERT_TRUE(C1.connectTo(S.port()));
  ASSERT_TRUE(C1.sendRpc("checkfence.explore", Slow, 1));
  ASSERT_TRUE(waitStatus(
      S, [](const std::string &B) { return contains(B, "\"inFlight\": 1"); }));

  // Fill the one queue slot.
  RawConn C2;
  ASSERT_TRUE(C2.connectTo(S.port()));
  ASSERT_TRUE(C2.sendRpc("checkfence.check",
                         Request::check("ms2", "T0").model("sc"), 2));
  ASSERT_TRUE(waitStatus(
      S, [](const std::string &B) { return contains(B, "\"queued\": 1"); }));

  // The next request must be turned away at admission.
  RemoteVerifier RV(urlFor(S));
  Result R;
  RemoteStatus St = RV.check(Request::check("ms2", "T0").model("tso"), R);
  EXPECT_FALSE(St);
  EXPECT_EQ(St.HttpStatus, 429);
  EXPECT_GE(St.RetryAfterSeconds, 1);
  EXPECT_TRUE(contains(St.Error, "queue"));
  EXPECT_GE(S.stats().Rejected, 1u);

  // Hanging up on the in-flight explore cancels it cooperatively and
  // frees the shard for the queued check.
  C1.close();
  ASSERT_TRUE(waitStatus(S, [](const std::string &B) {
    return contains(B, "\"cancelled\": 1") && contains(B, "\"queued\": 0");
  }));
  EXPECT_GE(S.stats().Cancelled, 1u);
}

//===----------------------------------------------------------------------===//
// Observability surfaces
//===----------------------------------------------------------------------===//

TEST(ServerObservability, MetricsAndStatusReflectTraffic) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  RemoteVerifier RV(urlFor(S));
  Result R;
  ASSERT_TRUE(RV.check(Request::check("ms2", "T0").model("sc"), R));

  HttpResult M = httpRequest("127.0.0.1", S.port(), "GET", "/metrics",
                             "", {});
  ASSERT_TRUE(M.Ok) << M.Error;
  EXPECT_EQ(M.StatusCode, 200);
  EXPECT_TRUE(contains(M.Body, "checkfence_requests_served_total 1"));
  EXPECT_TRUE(contains(M.Body, "checkfence_cache_misses_total 1"));
  EXPECT_TRUE(contains(M.Body, "checkfence_queue_depth 0"));
  EXPECT_TRUE(contains(M.Body, "# TYPE checkfence_inflight gauge"));

  HttpResult St = httpRequest("127.0.0.1", S.port(), "GET", "/status",
                              "", {});
  ASSERT_TRUE(St.Ok) << St.Error;
  support::JsonValue Doc;
  std::string ParseError;
  ASSERT_TRUE(support::parseJson(St.Body, Doc, ParseError)) << ParseError;
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc.find("version")->asString(), versionString());
  EXPECT_EQ(Doc.find("served")->asI64(), 1);
  EXPECT_EQ(Doc.find("draining")->asBool(), false);
  EXPECT_TRUE(Doc.find("cache")->isObject());
  EXPECT_EQ(Doc.find("pool"), nullptr);
}

TEST(ServerObservability, ProtocolErrorsAreWellFormed) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  int Port = S.port();

  HttpResult H = httpRequest("127.0.0.1", Port, "POST", "/rpc",
                             "this is not json", {});
  ASSERT_TRUE(H.Ok) << H.Error;
  EXPECT_EQ(H.StatusCode, 400);
  EXPECT_TRUE(contains(H.Body, "-32700"));

  H = httpRequest("127.0.0.1", Port, "POST", "/rpc",
                  rpcRequest("checkfence.nope", "{}", 1), {});
  ASSERT_TRUE(H.Ok);
  EXPECT_EQ(H.StatusCode, 404);
  EXPECT_TRUE(contains(H.Body, "-32601"));

  H = httpRequest("127.0.0.1", Port, "GET", "/nope", "", {});
  ASSERT_TRUE(H.Ok);
  EXPECT_EQ(H.StatusCode, 404);

  H = httpRequest("127.0.0.1", Port, "GET", "/rpc", "", {});
  ASSERT_TRUE(H.Ok);
  EXPECT_EQ(H.StatusCode, 405);
}

//===----------------------------------------------------------------------===//
// Drain and persistence
//===----------------------------------------------------------------------===//

TEST(ServerDrain, GracefulStopPersistsCacheAcrossRestart) {
  std::string CachePath = testing::TempDir() + "cf_server_cache.txt";
  std::remove(CachePath.c_str());

  Request Req = Request::check("ms2", "T0").model("sc");
  {
    ServerConfig Cfg;
    Cfg.Port = 0;
    Cfg.CachePath = CachePath;
    CheckServer S(Cfg);
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
    RemoteVerifier RV(urlFor(S));
    Result R;
    ASSERT_TRUE(RV.check(Req, R));
    EXPECT_FALSE(R.FromCache);
    S.requestStop();
    S.waitStopped();
  } // destructor after an explicit stop must be a no-op

  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.CachePath = CachePath;
  CheckServer S2(Cfg);
  std::string Error;
  ASSERT_TRUE(S2.start(Error)) << Error;
  RemoteVerifier RV(urlFor(S2));
  Result R;
  ASSERT_TRUE(RV.check(Req, R));
  EXPECT_TRUE(R.FromCache);
  EXPECT_GE(S2.stats().Cache.Hits, 1u);
  std::remove(CachePath.c_str());
}

TEST(ServerDrain, StoppedServerRefusesNewConnections) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  int Port = S.port();
  S.requestStop();
  S.waitStopped();
  EXPECT_TRUE(S.stopRequested());

  RawConn C;
  EXPECT_FALSE(C.connectTo(Port));
}

} // namespace
