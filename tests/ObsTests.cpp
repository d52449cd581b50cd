//===--- ObsTests.cpp - tracing, metrics, and logging -------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Covers the observability layer (src/obs/): the span tracer (valid
// Chrome trace JSON, balanced nesting, deterministic names, zero
// allocation when disabled, cross-thread propagation, the wire
// round-trip), the metrics registry (Prometheus rendering, histogram
// bucket/quantile semantics, concurrent observation), the leveled
// logger, and the end-to-end invariants: timing-free reports are
// byte-identical with tracing on or off, and a remote request returns
// the server's spans via the X-Checkfence-Trace round-trip.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "server/Http.h"
#include "support/JsonParse.h"

#include <algorithm>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace checkfence;

// Allocation counter for the zero-cost-when-disabled test. Counting is
// process-wide but the assertion only compares a delta on one thread
// while no other test runs, so background noise is not an issue (gtest
// runs tests sequentially within one binary).
static std::atomic<size_t> GAllocCount{0};

void *operator new(size_t N) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }

namespace {

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledByDefault) {
  EXPECT_EQ(obs::currentTracer(), nullptr);
  obs::Span S("test", "ignored");
  EXPECT_FALSE(S.active());
}

TEST(Trace, DisabledSpanAllocatesNothing) {
  ASSERT_EQ(obs::currentTracer(), nullptr);
  size_t Before = GAllocCount.load(std::memory_order_relaxed);
  for (int I = 0; I < 100; ++I) {
    obs::Span S("test", "static-name");
    obs::Span L("test", [] { return std::string(256, 'x'); });
    // The active() guard is the idiom for args: the JSON string is only
    // built when a tracer is installed.
    if (S.active())
      S.args("{\"would\": \"allocate\"}");
  }
  EXPECT_EQ(GAllocCount.load(std::memory_order_relaxed), Before);
}

TEST(Trace, LazyNameOnlyRunsWhenEnabled) {
  int Calls = 0;
  {
    obs::Span S("test", [&] {
      ++Calls;
      return std::string("lazy");
    });
  }
  EXPECT_EQ(Calls, 0);
  obs::Tracer T;
  obs::TraceContext Ctx(&T);
  {
    obs::Span S("test", [&] {
      ++Calls;
      return std::string("lazy");
    });
  }
  EXPECT_EQ(Calls, 1);
  ASSERT_EQ(T.eventCount(), 1u);
  EXPECT_EQ(T.events()[0].Name, "lazy");
}

TEST(Trace, RecordsBalancedNestedSpans) {
  obs::Tracer T;
  {
    obs::TraceContext Ctx(&T);
    obs::Span Outer("test", "outer");
    {
      obs::Span Inner("test", "inner");
    }
  }
  std::vector<obs::TraceEvent> Evs = T.events();
  ASSERT_EQ(Evs.size(), 2u);
  // Same thread, sorted by start: outer starts first and contains inner.
  EXPECT_EQ(Evs[0].Name, "outer");
  EXPECT_EQ(Evs[1].Name, "inner");
  EXPECT_EQ(Evs[0].Tid, Evs[1].Tid);
  EXPECT_LE(Evs[0].StartNs, Evs[1].StartNs);
  EXPECT_GE(Evs[0].StartNs + Evs[0].DurNs, Evs[1].StartNs + Evs[1].DurNs);
}

TEST(Trace, NullContextIsANoop) {
  obs::Tracer T;
  obs::TraceContext Outer(&T);
  {
    // Installing "no tracer" must not displace the enclosing tracer:
    // this is what lets the Verifier's inert trace scope compose with a
    // server-installed per-request tracer.
    obs::TraceContext Inner(nullptr);
    obs::Span S("test", "inside-null-context");
  }
  EXPECT_EQ(T.eventCount(), 1u);
}

TEST(Trace, JsonIsAValidChromeTraceDocument) {
  obs::Tracer T;
  {
    obs::TraceContext Ctx(&T);
    obs::Span S("cat1", "span-one");
    obs::Span S2("cat2", "span-two");
    S2.args("{\"round\": 3}");
  }
  support::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(support::parseJson(T.json(), Doc, Err)) << Err;
  ASSERT_TRUE(Doc.isObject());
  const support::JsonValue *Evs = Doc.find("traceEvents");
  ASSERT_NE(Evs, nullptr);
  ASSERT_TRUE(Evs->isArray());
  size_t Complete = 0, Meta = 0;
  for (const support::JsonValue &E : Evs->Items) {
    const support::JsonValue *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr);
    if (Ph->asString() == "X") {
      ++Complete;
      EXPECT_NE(E.find("name"), nullptr);
      EXPECT_NE(E.find("ts"), nullptr);
      EXPECT_NE(E.find("dur"), nullptr);
      EXPECT_NE(E.find("pid"), nullptr);
      EXPECT_NE(E.find("tid"), nullptr);
    } else {
      EXPECT_EQ(Ph->asString(), "M");
      ++Meta;
    }
  }
  EXPECT_EQ(Complete, 2u);
  EXPECT_GE(Meta, 1u); // process_name for the local lane
  const support::JsonValue *Unit = Doc.find("displayTimeUnit");
  ASSERT_NE(Unit, nullptr);
  EXPECT_EQ(Unit->asString(), "ms");
}

TEST(Trace, WireRoundTripPreservesEvents) {
  obs::Tracer T;
  {
    obs::TraceContext Ctx(&T);
    obs::Span S("server", "dispatch:check");
    S.args("{\"shard\": 1}");
  }
  std::vector<obs::TraceEvent> Parsed;
  ASSERT_TRUE(obs::Tracer::parseEvents(T.eventsJson(), Parsed));
  ASSERT_EQ(Parsed.size(), 1u);
  EXPECT_EQ(Parsed[0].Name, "dispatch:check");
  EXPECT_EQ(Parsed[0].Cat, "server");
  EXPECT_EQ(Parsed[0].Args, "{\"shard\": 1}");
}

TEST(Trace, ForeignEventsLandInTheirOwnLane) {
  obs::Tracer T;
  obs::TraceEvent Ev;
  Ev.Name = "remote-span";
  Ev.Cat = "server";
  Ev.StartNs = 1000;
  Ev.DurNs = 500;
  T.recordForeign(Ev, /*Pid=*/1, /*ShiftNs=*/2000);
  std::vector<obs::TraceEvent> Evs = T.events();
  ASSERT_EQ(Evs.size(), 1u);
  EXPECT_EQ(Evs[0].Pid, 1u);
  EXPECT_EQ(Evs[0].StartNs, 3000u);
  // Both lanes get a process_name metadata record once a foreign lane
  // exists.
  EXPECT_NE(T.json().find("checkfenced (remote)"), std::string::npos);
}

TEST(Trace, ThreadsShareOneTraceViaContextPropagation) {
  obs::Tracer T;
  obs::TraceContext Ctx(&T);
  obs::Tracer *Parent = obs::currentTracer();
  std::vector<std::thread> Workers;
  for (int I = 0; I < 4; ++I)
    Workers.emplace_back([Parent] {
      obs::TraceContext TC(Parent);
      obs::Span S("test", "worker-span");
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(T.eventCount(), 4u);
}

TEST(Trace, WriteFileProducesParseableJson) {
  std::string Path = "obs_trace_tmp.json";
  obs::Tracer T;
  {
    obs::TraceContext Ctx(&T);
    obs::Span S("test", "file-span");
  }
  ASSERT_TRUE(T.writeFile(Path));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  support::JsonValue Doc;
  std::string Err;
  EXPECT_TRUE(support::parseJson(Buf.str(), Doc, Err)) << Err;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Pipeline integration: deterministic names, byte-identical reports
//===----------------------------------------------------------------------===//

std::vector<std::string> tracedSpanNames(const Request &Req) {
  obs::Tracer T;
  obs::TraceContext Ctx(&T);
  Verifier V;
  Result R = V.check(Req);
  EXPECT_EQ(R.Verdict, Status::Pass);
  std::vector<std::string> Names;
  for (const obs::TraceEvent &Ev : T.events())
    Names.push_back(Ev.Cat + "/" + Ev.Name);
  std::sort(Names.begin(), Names.end());
  return Names;
}

TEST(TracePipeline, SpanNamesAreDeterministicAcrossRuns) {
  Request Req = Request::check("ms2", "T0").model("sc").noCache();
  std::vector<std::string> First = tracedSpanNames(Req);
  std::vector<std::string> Second = tracedSpanNames(Req);
  EXPECT_FALSE(First.empty());
  EXPECT_EQ(First, Second);
  // The phase spans the docs promise are present.
  auto Has = [&](const std::string &N) {
    return std::find(First.begin(), First.end(), N) != First.end();
  };
  EXPECT_TRUE(Has("request/request:check"));
  EXPECT_TRUE(Has("engine/mine"));
  EXPECT_TRUE(Has("engine/encode"));
  EXPECT_TRUE(Has("engine/include"));
}

TEST(TracePipeline, TimingFreeReportIdenticalWithTracingOnOrOff) {
  Request Base = Request::matrix()
                     .impls({"ms2"})
                     .tests({"T0", "Tpc2"})
                     .models({"sc", "tso"})
                     .noCache();
  Verifier V;
  Report Off = V.matrix(Request(Base).jobs(2));
  std::string Path = "obs_matrix_trace_tmp.json";
  Report On = V.matrix(Request(Base).jobs(2).traceFile(Path));
  ASSERT_TRUE(Off.ok());
  ASSERT_TRUE(On.ok());
  EXPECT_EQ(Off.json(false), On.json(false));
  // The trace side effect happened and covered every cell.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_NE(Buf.str().find("cell:ms2:T0:sc"), std::string::npos);
  EXPECT_NE(Buf.str().find("request:matrix"), std::string::npos);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterAndGaugeRender) {
  obs::MetricsRegistry Reg;
  obs::Counter &C = Reg.counter("test_total", "a test counter");
  obs::Gauge &G = Reg.gauge("test_depth", "a test gauge");
  C.add(3);
  G.set(-2);
  std::string Out = Reg.renderPrometheus();
  EXPECT_NE(Out.find("# HELP test_total a test counter\n"),
            std::string::npos);
  EXPECT_NE(Out.find("# TYPE test_total counter\n"), std::string::npos);
  EXPECT_NE(Out.find("test_total 3\n"), std::string::npos);
  EXPECT_NE(Out.find("# TYPE test_depth gauge\n"), std::string::npos);
  EXPECT_NE(Out.find("test_depth -2\n"), std::string::npos);
}

TEST(Metrics, RegistrationIsIdempotentByName) {
  obs::MetricsRegistry Reg;
  obs::Counter &A = Reg.counter("same_total", "help");
  obs::Counter &B = Reg.counter("same_total", "help");
  EXPECT_EQ(&A, &B);
  A.add(1);
  B.add(1);
  EXPECT_EQ(A.value(), 2u);
}

TEST(Metrics, HistogramPrometheusShape) {
  obs::MetricsRegistry Reg;
  obs::Histogram &H =
      Reg.histogram("lat_seconds", "latencies", {0.1, 1.0, 10.0});
  H.observe(0.05); // first bucket
  H.observe(0.5);  // second
  H.observe(100);  // +Inf overflow
  std::string Out = Reg.renderPrometheus();
  EXPECT_NE(Out.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  // Cumulative buckets.
  EXPECT_NE(Out.find("lat_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Out.find("lat_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Out.find("lat_seconds_bucket{le=\"10\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Out.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Out.find("lat_seconds_count 3\n"), std::string::npos);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_NEAR(H.sum(), 100.55, 1e-9);
}

TEST(Metrics, HistogramBoundaryValueIsInclusive) {
  obs::MetricsRegistry Reg;
  obs::Histogram &H = Reg.histogram("edge_seconds", "edges", {1.0, 2.0});
  H.observe(1.0); // le="1" is inclusive, Prometheus semantics
  std::string Out = Reg.renderPrometheus();
  EXPECT_NE(Out.find("edge_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
}

TEST(Metrics, HistogramQuantilesInterpolate) {
  obs::MetricsRegistry Reg;
  obs::Histogram &H =
      Reg.histogram("q_seconds", "quantiles", {1.0, 2.0, 4.0});
  for (int I = 0; I < 100; ++I)
    H.observe(1.5); // all in the (1, 2] bucket
  double P50 = H.quantile(0.5);
  EXPECT_GT(P50, 1.0);
  EXPECT_LE(P50, 2.0);
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 100u);
  EXPECT_NEAR(S.Sum, 150.0, 1e-6);
  EXPECT_GT(S.P99, 1.0);
  EXPECT_LE(S.P99, 2.0);
}

TEST(Metrics, HistogramFamilyLabelsRenderPerSeries) {
  obs::MetricsRegistry Reg;
  obs::HistogramFamily &F = Reg.histogramFamily(
      "req_seconds", "request latency", "kind", {0.5, 5.0});
  F.withLabel("check").observe(0.1);
  F.withLabel("matrix").observe(1.0);
  std::string Out = Reg.renderPrometheus();
  EXPECT_NE(Out.find("req_seconds_bucket{kind=\"check\",le=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Out.find("req_seconds_bucket{kind=\"matrix\",le=\"0.5\"} 0\n"),
            std::string::npos);
  EXPECT_NE(Out.find("req_seconds_count{kind=\"check\"} 1\n"),
            std::string::npos);
  // One shared header pair for the family, not one per label.
  size_t First = Out.find("# TYPE req_seconds histogram");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Out.find("# TYPE req_seconds histogram", First + 1),
            std::string::npos);
  // withLabel returns a stable instrument.
  EXPECT_EQ(&F.withLabel("check"), &F.withLabel("check"));
}

TEST(Metrics, ConcurrentObservationIsRaceFreeAndLossless) {
  obs::MetricsRegistry Reg;
  obs::Counter &C = Reg.counter("hammer_total", "hammered");
  obs::HistogramFamily &F =
      Reg.histogramFamily("hammer_seconds", "hammered", "kind",
                          obs::latencyBuckets());
  constexpr int Threads = 8, PerThread = 5000;
  std::vector<std::thread> Workers;
  for (int W = 0; W < Threads; ++W)
    Workers.emplace_back([&, W] {
      obs::Histogram &H =
          F.withLabel(W % 2 ? "odd" : "even"); // racing creation
      for (int I = 0; I < PerThread; ++I) {
        C.add(1);
        H.observe(0.001 * (I % 50));
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(Threads * PerThread));
  uint64_t Total = 0;
  for (obs::Histogram *H : F.all())
    Total += H->count();
  EXPECT_EQ(Total, static_cast<uint64_t>(Threads * PerThread));
}

//===----------------------------------------------------------------------===//
// Logger
//===----------------------------------------------------------------------===//

class LogTest : public ::testing::Test {
protected:
  void SetUp() override { Saved = obs::logLevel(); }
  void TearDown() override {
    obs::setLogLevel(Saved);
    obs::setLogSink(nullptr);
  }
  obs::LogLevel Saved;
};

TEST_F(LogTest, LevelsFilter) {
  std::vector<std::string> Lines;
  obs::setLogSink([&](const std::string &L) { Lines.push_back(L); });
  obs::setLogLevel(obs::LogLevel::Warn);
  EXPECT_FALSE(obs::logEnabled(obs::LogLevel::Info));
  EXPECT_TRUE(obs::logEnabled(obs::LogLevel::Error));
  obs::log(obs::LogLevel::Info, "test", "dropped");
  obs::log(obs::LogLevel::Warn, "test", "kept");
  obs::logf(obs::LogLevel::Error, "test", "kept %d", 2);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_NE(Lines[0].find("warn"), std::string::npos);
  EXPECT_NE(Lines[0].find("[test] kept"), std::string::npos);
  EXPECT_NE(Lines[1].find("kept 2"), std::string::npos);
}

TEST_F(LogTest, OffSilencesEverything) {
  std::vector<std::string> Lines;
  obs::setLogSink([&](const std::string &L) { Lines.push_back(L); });
  obs::setLogLevel(obs::LogLevel::Off);
  obs::log(obs::LogLevel::Error, "test", "dropped");
  EXPECT_TRUE(Lines.empty());
}

TEST_F(LogTest, LineFormatHasTimestampLevelSubsystem) {
  std::string Line;
  obs::setLogSink([&](const std::string &L) { Line = L; });
  obs::setLogLevel(obs::LogLevel::Debug);
  obs::log(obs::LogLevel::Debug, "engine", "hello");
  // 2026-08-07T12:34:56.789Z debug [engine] hello\n
  ASSERT_GE(Line.size(), 25u);
  EXPECT_EQ(Line[4], '-');
  EXPECT_EQ(Line[10], 'T');
  EXPECT_EQ(Line[23], 'Z');
  EXPECT_NE(Line.find(" debug "), std::string::npos);
  EXPECT_NE(Line.find("[engine] hello"), std::string::npos);
  EXPECT_EQ(Line.back(), '\n');
}

TEST_F(LogTest, ParseLevelNames) {
  obs::LogLevel L = obs::LogLevel::Debug;
  EXPECT_TRUE(obs::parseLogLevel("warn", L));
  EXPECT_EQ(L, obs::LogLevel::Warn);
  EXPECT_TRUE(obs::parseLogLevel("off", L));
  EXPECT_EQ(L, obs::LogLevel::Off);
  EXPECT_FALSE(obs::parseLogLevel("verbose", L));
  EXPECT_EQ(L, obs::LogLevel::Off); // untouched on failure
  EXPECT_STREQ(obs::logLevelName(obs::LogLevel::Info), "info");
}

//===----------------------------------------------------------------------===//
// Server round-trip
//===----------------------------------------------------------------------===//

TEST(ObsServer, RemoteTraceRoundTripAndLatencyHistograms) {
  ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.LogLevel = "off";
  CheckServer Server(Cfg);
  std::string Error;
  ASSERT_TRUE(Server.start(Error)) << Error;
  std::string Url = "http://127.0.0.1:" + std::to_string(Server.port());

  std::string Path = "obs_remote_trace_tmp.json";
  RemoteVerifier RV(Url);
  Result R;
  RemoteStatus S =
      RV.check(Request::check("ms2", "T0").model("sc").traceFile(Path), R);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(R.Verdict, Status::Pass);

  // The trace file holds both lanes: the client rpc span (pid 0) and
  // the server's queue/dispatch/pipeline spans (pid 1).
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Trace = Buf.str();
  EXPECT_NE(Trace.find("rpc:checkfence.check"), std::string::npos);
  EXPECT_NE(Trace.find("queue_wait"), std::string::npos);
  EXPECT_NE(Trace.find("dispatch:check"), std::string::npos);
  EXPECT_NE(Trace.find("request:check"), std::string::npos);
  EXPECT_NE(Trace.find("checkfenced (remote)"), std::string::npos);
  std::remove(Path.c_str());

  // /metrics exposes the per-kind latency and queue-wait histograms.
  server::HttpResult M = server::httpRequest(
      "127.0.0.1", Server.port(), "GET", "/metrics", "", {});
  ASSERT_TRUE(M.Ok) << M.Error;
  EXPECT_NE(M.Body.find("# TYPE checkfence_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      M.Body.find("checkfence_request_seconds_count{kind=\"check\"} 1"),
      std::string::npos);
  EXPECT_NE(M.Body.find(
                "checkfence_queue_wait_seconds_count{priority=\"normal\"} 1"),
            std::string::npos);
  EXPECT_NE(M.Body.find("checkfence_request_seconds_bucket{kind=\"check\","
                        "le=\"+Inf\"} 1"),
            std::string::npos);
  // Pre-registered series render as zeros before any request of that
  // kind arrives (no metric appears "from nowhere" mid-scrape).
  EXPECT_NE(M.Body.find("checkfence_request_seconds_count{kind=\"matrix\"} 0"),
            std::string::npos);

  // /status carries the quantile summaries for the served kind.
  server::HttpResult St = server::httpRequest(
      "127.0.0.1", Server.port(), "GET", "/status", "", {});
  ASSERT_TRUE(St.Ok) << St.Error;
  support::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(support::parseJson(St.Body, Doc, Err)) << Err;
  const support::JsonValue *RS = Doc.find("requestSeconds");
  ASSERT_NE(RS, nullptr);
  const support::JsonValue *Check = RS->find("check");
  ASSERT_NE(Check, nullptr);
  const support::JsonValue *Count = Check->find("count");
  ASSERT_NE(Count, nullptr);
  EXPECT_EQ(Count->asU64(), 1ull);
  EXPECT_NE(Check->find("p50"), nullptr);
  EXPECT_NE(Check->find("p99"), nullptr);

  Server.requestStop();
  Server.waitStopped();
}

} // namespace
