//===--- ServerTests.cpp - the checkfenced daemon -----------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Covers the verification server (include/checkfence/Server.h) and its
// client (Remote.h) against an in-process daemon on an ephemeral port:
// decoding of result payloads from older servers and into reused
// out-parameters, remote-vs-local result identity for every request
// kind, admission control (429 + Retry-After), independent requests
// running in parallel on the worker pool, per-request deadline
// clamping, client disconnect cancellation (of running and of queued
// requests), the /metrics and /status surfaces, survival of malformed
// requests, graceful drain (also with an idle client connected), and
// cross-restart cache persistence.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "api/ResultCodec.h"
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
#include <fstream>
#include <future>
#include <sstream>
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
// Wire compatibility with older servers
//===----------------------------------------------------------------------===//

TEST(WireCompat, OldPrunerStatsDecodeAndAreNoLongerSent) {
  Result R;
  R.Verdict = Status::Pass;
  R.Message = "all executions are observationally serial";
  R.Impl = "ms2";
  R.Test = "T0";
  R.Model = "tso";
  R.Observations = {"[0 1]", "[1 0]"};
  R.Stats.ObservationCount = 2;
  R.Stats.BoundIterations = 1;
  R.Stats.UnrolledInstrs = 40;
  R.Stats.SatVars = 300;
  R.Stats.SatClauses = 900;
  R.Stats.TotalSeconds = 0.25;
  R.FinalBounds["loop1"] = 2;

  // An older server still sends the six pruner counters inside "stats";
  // this one sends none of them.
  const char *OldKeys[] = {"oracleAttempts",     "oracleDischarges",
                           "oracleSeconds",      "analysisAttempts",
                           "analysisDischarges", "analysisSeconds"};
  std::string Current = api::encodeResult(R);
  std::string Old = Current;
  size_t Open = Old.find('{', Old.find("\"stats\""));
  ASSERT_NE(Open, std::string::npos);
  for (const char *Key : OldKeys) {
    std::string Quoted = std::string("\"") + Key + "\"";
    EXPECT_FALSE(contains(Current, Quoted)) << Key;
    Old.insert(Open + 1, Quoted + ": 1, ");
  }

  auto Decode = [](const std::string &Text, Result &Out) {
    support::JsonValue Doc;
    std::string Error;
    if (!support::parseJson(Text, Doc, Error))
      return ::testing::AssertionFailure() << "parse: " << Error;
    if (!api::decodeResult(Doc, Out, Error))
      return ::testing::AssertionFailure() << "decode: " << Error;
    return ::testing::AssertionSuccess();
  };
  Result FromCurrent, FromOld;
  ASSERT_TRUE(Decode(Current, FromCurrent));
  ASSERT_TRUE(Decode(Old, FromOld));
  EXPECT_EQ(FromOld.json(false), FromCurrent.json(false));
  EXPECT_EQ(FromOld.json(false), R.json(false));
}

TEST(WireCompat, RemovedRequestSettingsDecodeAndAreNoLongerSent) {
  // An older client still sends the four synthesis settings and the
  // explore oracle-sample period; a server ignores them like any unknown
  // member, and this client sends none of them.
  Request Req = Request::synthesis("msn", "T0").model("relaxed");
  const char *OldKeys[] = {"synthStrip", "synthMinLine", "synthMaxFences",
                           "synthMinimize", "oracleSamplePeriod"};
  std::string Current = encodeRequest(Req);
  std::string Old = Current;
  for (const char *Key : OldKeys) {
    std::string Quoted = std::string("\"") + Key + "\"";
    EXPECT_FALSE(contains(Current, Quoted)) << Key;
    Old.insert(1, Quoted + ": 3, ");
  }

  auto Decode = [](const std::string &Text, Request &Out) {
    support::JsonValue Doc;
    std::string Error;
    if (!support::parseJson(Text, Doc, Error))
      return ::testing::AssertionFailure() << "parse: " << Error;
    if (!decodeRequest(Doc, Out, Error))
      return ::testing::AssertionFailure() << "decode: " << Error;
    return ::testing::AssertionSuccess();
  };
  Request FromCurrent, FromOld;
  ASSERT_TRUE(Decode(Current, FromCurrent));
  ASSERT_TRUE(Decode(Old, FromOld));
  EXPECT_EQ(encodeRequest(FromOld), Current);
  EXPECT_EQ(encodeRequest(FromCurrent), Current);
}

TEST(WireCompat, DecodersResetAReusedOutParameter) {
  // A client reusing one out-parameter (RemoteVerifier::check(A, R);
  // check(B, R)) must read B alone: no list, bound or stat of A may leak
  // into it, even when B's payload omits those fields.
  auto Parse = [](const std::string &Text) {
    support::JsonValue Doc;
    std::string Error;
    EXPECT_TRUE(support::parseJson(Text, Doc, Error)) << Error;
    return Doc;
  };
  std::string Error;

  Result A;
  A.Verdict = Status::Fail;
  A.Observations = {"[0 1]", "[1 0]"};
  A.HasCounterexample = true;
  A.CounterexampleObservation = "[1 1]";
  A.Stats.SatVars = 7;
  A.Stats.IncludeSeconds = 0.5;
  A.FinalBounds["loopA"] = 3;
  const std::string ResultB =
      R"({"verdict": "PASS", "observations": ["[0 0]"], )"
      R"("finalBounds": [{"loop": "loopB", "bound": 2}]})";
  Result Reused, Fresh;
  ASSERT_TRUE(api::decodeResult(Parse(api::encodeResult(A)), Reused, Error));
  ASSERT_TRUE(api::decodeResult(Parse(ResultB), Reused, Error));
  ASSERT_TRUE(api::decodeResult(Parse(ResultB), Fresh, Error));
  EXPECT_EQ(api::encodeResult(Reused), api::encodeResult(Fresh));

  SynthOutcome SA;
  SA.Success = true;
  SA.Fences = {{12, "store-store"}};
  SA.Removed = {{30, "load-load"}};
  SA.Log = {"repair: +store-store@12"};
  const std::string SynthB =
      R"({"success": false, "fences": [{"line": 7, "kind": "load-load"}]})";
  SynthOutcome SReused, SFresh;
  ASSERT_TRUE(decodeSynthOutcome(Parse(encodeSynthOutcome(SA)), SReused,
                                 Error));
  ASSERT_TRUE(decodeSynthOutcome(Parse(SynthB), SReused, Error));
  ASSERT_TRUE(decodeSynthOutcome(Parse(SynthB), SFresh, Error));
  EXPECT_EQ(encodeSynthOutcome(SReused), encodeSynthOutcome(SFresh));

  WeakestOutcome WA;
  WA.Ok = true;
  WA.Weakest = {"tso", "pso"};
  const std::string WeakestB = R"({"ok": true, "weakest": ["sc"]})";
  WeakestOutcome WReused, WFresh;
  ASSERT_TRUE(decodeWeakestOutcome(Parse(encodeWeakestOutcome(WA)), WReused,
                                   Error));
  ASSERT_TRUE(decodeWeakestOutcome(Parse(WeakestB), WReused, Error));
  ASSERT_TRUE(decodeWeakestOutcome(Parse(WeakestB), WFresh, Error));
  EXPECT_EQ(encodeWeakestOutcome(WReused), encodeWeakestOutcome(WFresh));
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

/// A remote report equals the local run of the same request in
/// everything but its timings.
void expectSameReport(const Report &Remote, const Report &Local) {
  ASSERT_EQ(Remote.ok(), Local.ok());
  EXPECT_EQ(Remote.error(), Local.error());
  EXPECT_EQ(Remote.json(false), Local.json(false));
  std::vector<Report::Cell> RC = Remote.cells(), LC = Local.cells();
  ASSERT_EQ(RC.size(), LC.size());
  for (size_t I = 0; I < RC.size(); ++I) {
    SCOPED_TRACE(I);
    EXPECT_EQ(RC[I].Impl, LC[I].Impl);
    EXPECT_EQ(RC[I].Test, LC[I].Test);
    EXPECT_EQ(RC[I].Model, LC[I].Model);
    EXPECT_EQ(RC[I].Verdict, LC[I].Verdict);
    EXPECT_EQ(RC[I].Message, LC[I].Message);
  }
  for (Status St : {Status::Pass, Status::Fail, Status::SequentialBug,
                    Status::BoundsExhausted, Status::Error,
                    Status::Cancelled})
    EXPECT_EQ(Remote.count(St), Local.count(St)) << statusName(St);
  EXPECT_EQ(Remote.allCompleted(), Local.allCompleted());
}

/// Runs \p Req locally and through the daemon; the two must agree.
Report expectRemoteMatchesLocal(const CheckServer &S, Verifier &Local,
                                const Request &Req) {
  Report L = Local.matrix(Req);
  RemoteVerifier RV(urlFor(S));
  Report R;
  RemoteStatus St = RV.matrix(Req, R);
  EXPECT_TRUE(St) << St.Error;
  expectSameReport(R, L);
  return R;
}

TEST_F(IdentityFixture, MatrixReportMatchesLocal) {
  Request Req = Request::matrix()
                    .impls({"ms2"})
                    .tests({"T0"})
                    .models({"sc", "tso"});
  Report L = Local.matrix(Req);
  ASSERT_TRUE(L.ok());
  Report R = expectRemoteMatchesLocal(S, Local, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.cellCount(), 2u);
  EXPECT_TRUE(R.allCompleted());

  // The report codec carries timings exactly: a decoded report renders
  // the encoded one's table and timed JSON byte for byte.
  support::JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(support::parseJson(api::encodeReport(L), Doc, Error)) << Error;
  Report Back;
  ASSERT_TRUE(api::decodeReport(Doc, Back, Error)) << Error;
  EXPECT_EQ(Back.json(true), L.json(true));
  EXPECT_EQ(Back.table(), L.table());
  EXPECT_EQ(Back.jobs(), L.jobs());
  EXPECT_EQ(Back.wallSeconds(), L.wallSeconds());
}

TEST_F(IdentityFixture, SweepRendersWeakestPassingOnTheClient) {
  Request Req = Request::sweep().impls({"ms2"}).tests({"T0"});
  Report R = expectRemoteMatchesLocal(S, Local, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_GT(R.cellCount(), 1u);
  EXPECT_TRUE(contains(R.json(false), "\"weakest_passing\""));
  EXPECT_TRUE(contains(R.table(), "weakest passing model"));
}

TEST_F(IdentityFixture, UnknownImplIsAnErrorCellRemotely) {
  Request Req =
      Request::matrix().impls({"nosuch"}).tests({"T0"}).models({"sc"});
  Report R = expectRemoteMatchesLocal(S, Local, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.count(Status::Error), 1);
  EXPECT_FALSE(R.allCompleted());
}

TEST_F(IdentityFixture, BadModelFailsTheRemoteRequestLikeALocalOne) {
  Request Req =
      Request::matrix().impls({"ms2"}).tests({"T0"}).models({"nosuch"});
  Report R = expectRemoteMatchesLocal(S, Local, Req); // same error()
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.cellCount(), 0u);
}

TEST_F(IdentityFixture, ExpiredDeadlineCancelsEveryRemoteCell) {
  Request Req = Request::matrix()
                    .impls({"ms2"})
                    .tests({"T0", "Tpc2"})
                    .models({"sc", "tso"})
                    .deadline(1e-9);
  Report R = expectRemoteMatchesLocal(S, Local, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_EQ(R.cellCount(), 4u);
  EXPECT_EQ(R.count(Status::Cancelled), 4);
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
  // On relaxed the search places three fences and minimizes one away,
  // so the log and the removed list are not empty.
  Request Req = Request::check("ms2", "T0").model("relaxed");
  Req.RequestKind = Request::Kind::Synthesis;
  SynthOutcome L = Local.synthesize(Req);
  ASSERT_FALSE(L.Log.empty());
  ASSERT_FALSE(L.Removed.empty());

  RemoteVerifier RV(urlFor(S));
  SynthOutcome R;
  RemoteStatus St = RV.synthesize(Req, R);
  ASSERT_TRUE(St) << St.Error;
  EXPECT_TRUE(R.Success) << R.Message;
  EXPECT_EQ(R.json(false), L.json(false));
  // json() leaves these out; the CLI prints the log in --remote mode.
  EXPECT_EQ(R.Cancelled, L.Cancelled);
  EXPECT_EQ(R.Log, L.Log);
  ASSERT_EQ(R.Removed.size(), L.Removed.size());
  for (size_t I = 0; I < L.Removed.size(); ++I) {
    EXPECT_EQ(R.Removed[I].Line, L.Removed[I].Line);
    EXPECT_EQ(R.Removed[I].Kind, L.Removed[I].Kind);
  }
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

TEST(ServerPolicy, WorkersShareOneResultCache) {
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

  // Occupy the single worker with an explore run big enough to outlast
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
  // frees the worker for the queued check.
  C1.close();
  ASSERT_TRUE(waitStatus(S, [](const std::string &B) {
    return contains(B, "\"cancelled\": 1") && contains(B, "\"queued\": 0");
  }));
  EXPECT_GE(S.stats().Cancelled, 1u);
}

TEST(ServerQueue, HangUpWhileQueuedCancels) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.Shards = 1;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  // Occupy the single worker, then queue a check behind it.
  Request Slow = Request::check();
  Slow.RequestKind = Request::Kind::Explore;
  Slow.seed(1).budget(5000);
  RawConn Busy;
  ASSERT_TRUE(Busy.connectTo(S.port()));
  ASSERT_TRUE(Busy.sendRpc("checkfence.explore", Slow, 1));
  ASSERT_TRUE(waitStatus(
      S, [](const std::string &B) { return contains(B, "\"inFlight\": 1"); }));
  RawConn Queued;
  ASSERT_TRUE(Queued.connectTo(S.port()));
  ASSERT_TRUE(Queued.sendRpc("checkfence.check",
                             Request::check("ms2", "T0").model("sc"), 2));
  ASSERT_TRUE(waitStatus(
      S, [](const std::string &B) { return contains(B, "\"queued\": 1"); }));

  // The queued check's client hangs up. Its connection thread notices
  // within a poll interval or two (50 ms each), well before the worker
  // is freed below, so the check runs with its token already cancelled.
  Queued.close();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Busy.close();
  ASSERT_TRUE(waitStatus(S, [](const std::string &B) {
    return contains(B, "\"cancelled\": 2") && contains(B, "\"queued\": 0") &&
           contains(B, "\"inFlight\": 0");
  }));
}

TEST(ServerQueue, IndependentRequestsRunInParallel) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.Shards = 2;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  // Two explore runs - no program, so nothing to tell them apart but the
  // seed - each big enough to outlast the status polls below.
  RawConn C[2];
  for (int I = 0; I < 2; ++I) {
    Request Slow = Request::check();
    Slow.RequestKind = Request::Kind::Explore;
    Slow.seed(I + 1).budget(5000);
    ASSERT_TRUE(C[I].connectTo(S.port()));
    ASSERT_TRUE(C[I].sendRpc("checkfence.explore", Slow, I + 1));
  }
  // Both workers pick one up: neither waits behind the other.
  ASSERT_TRUE(waitStatus(
      S, [](const std::string &B) { return contains(B, "\"inFlight\": 2"); }));

  C[0].close();
  C[1].close();
  ASSERT_TRUE(waitStatus(S, [](const std::string &B) {
    return contains(B, "\"cancelled\": 2") && contains(B, "\"inFlight\": 0");
  }));
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

TEST(ServerRobustness, MalformedLitmusLeavesTheDaemonServing) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;
  int Port = S.port();

  const char *Sb = R"(
extern void observe(int v);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)";
  Request Litmus = Request::litmus(Sb).thread("t1_op").thread("t2_op");
  // Posts \p Req and returns the JSON-RPC result object.
  auto Post = [&](const Request &Req, int Id, support::JsonValue &Result) {
    HttpResult H = httpRequest(
        "127.0.0.1", Port, "POST", "/rpc",
        rpcRequest("checkfence.litmus", encodeRequest(Req), Id), {});
    ASSERT_TRUE(H.Ok) << H.Error;
    ASSERT_EQ(H.StatusCode, 200) << H.Body;
    support::JsonValue Doc;
    std::string ParseError;
    ASSERT_TRUE(support::parseJson(H.Body, Doc, ParseError)) << ParseError;
    ASSERT_NE(Doc.find("result"), nullptr) << H.Body;
    Result = *Doc.find("result");
  };

  // No expect(): the request names no observed values at all.
  support::JsonValue R;
  ASSERT_NO_FATAL_FAILURE(Post(Litmus, 1, R));
  EXPECT_FALSE(R.find("ok")->asBool());
  EXPECT_EQ(R.find("error")->asString(),
            "litmus expects 2 observed values, got 0");

  // The daemon still answers the next connection.
  ASSERT_NO_FATAL_FAILURE(
      Post(Request(Litmus).expect({0, 0}).model("sc"), 2, R));
  EXPECT_TRUE(R.find("ok")->asBool()) << R.find("error")->asString();
  EXPECT_FALSE(R.find("reachable")->asBool());
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

TEST(ServerDrain, DrainNeverClobbersAFileThatIsNotACache) {
  const std::string Foreign = "not a cache\n";
  std::string CachePath = testing::TempDir() + "cf_server_not_a_cache.txt";
  {
    std::ofstream Out(CachePath);
    Out << Foreign;
  }
  {
    ServerConfig Cfg;
    Cfg.Port = 0;
    Cfg.CachePath = CachePath;
    CheckServer S(Cfg);
    std::string Error;
    ASSERT_TRUE(S.start(Error)) << Error;
    RemoteVerifier RV(urlFor(S));
    Result R;
    ASSERT_TRUE(RV.check(Request::check("ms2", "T0").model("sc"), R));
    EXPECT_EQ(R.Verdict, Status::Pass);
    S.requestStop();
    S.waitStopped(); // the drain saves the cache, or refuses to
  }
  std::ifstream In(CachePath);
  std::stringstream Kept;
  Kept << In.rdbuf();
  EXPECT_EQ(Kept.str(), Foreign);
  std::remove(CachePath.c_str());
}

TEST(ServerDrain, IdleConnectionDoesNotBlockDrain) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  CheckServer S(Cfg);
  std::string Error;
  ASSERT_TRUE(S.start(Error)) << Error;

  // A client that connects and never sends a byte.
  RawConn Idle;
  ASSERT_TRUE(Idle.connectTo(S.port()));
  for (int I = 0; I < 250 && S.stats().Accepted == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(S.stats().Accepted, 1u);

  S.requestStop();
  std::promise<void> Stopped;
  std::future<void> Done = Stopped.get_future();
  std::thread Drain([&] {
    S.waitStopped();
    Stopped.set_value();
  });
  bool InTime =
      Done.wait_for(std::chrono::seconds(ServerReadTimeoutSeconds + 5)) ==
      std::future_status::ready;
  // A drain still waiting on the idle client would hang the test: hang
  // up so it finishes, and fail instead.
  if (!InTime)
    Idle.close();
  Drain.join();
  EXPECT_TRUE(InTime) << "drain waited on a connection that sent nothing";
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
