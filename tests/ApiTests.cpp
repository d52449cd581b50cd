//===--- ApiTests.cpp - the public facade ------------------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Covers the include/checkfence/ facade: request building and dispatch,
// the shared versioned JSON schema (single check == one-cell matrix),
// cooperative cancellation and deadlines, and the cross-run result cache
// (hit determinism, fingerprint invalidation, bounds seeding,
// persistence).
//
// Tests may use internal headers (they are in-tree); the facade itself is
// exercised strictly through include/checkfence/checkfence.h types.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "api/ResultCodec.h"
#include "engine/MatrixRunner.h"
#include "harness/Catalog.h"
#include "obs/Trace.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

using namespace checkfence;

namespace {

//===----------------------------------------------------------------------===//
// Basic dispatch
//===----------------------------------------------------------------------===//

TEST(ApiCheck, PassThroughFacade) {
  Verifier V;
  Result R = V.check(Request::check("ms2", "T0").model("sc"));
  EXPECT_EQ(R.Verdict, Status::Pass);
  EXPECT_TRUE(R.passed());
  EXPECT_EQ(R.Impl, "ms2");
  EXPECT_EQ(R.Test, "T0");
  EXPECT_EQ(R.Model, "sc");
  EXPECT_GT(R.Stats.ObservationCount, 0);
  EXPECT_EQ(static_cast<int>(R.Observations.size()),
            R.Stats.ObservationCount);
  EXPECT_GT(R.Stats.SatVars, 0);
  EXPECT_FALSE(R.FromCache);
}

TEST(ApiCheck, FailureCarriesCounterexample) {
  Verifier V;
  Result R = V.check(Request::check("snark", "D0").model("sc"));
  EXPECT_EQ(R.Verdict, Status::Fail);
  EXPECT_TRUE(R.HasCounterexample);
  EXPECT_FALSE(R.CounterexampleTrace.empty());
  EXPECT_FALSE(R.CounterexampleColumns.empty());
  EXPECT_FALSE(R.CounterexampleObservation.empty());
}

TEST(ApiCheck, UnknownNamesAreErrors) {
  Verifier V;
  EXPECT_EQ(V.check(Request::check("nosuch", "T0")).Verdict,
            Status::Error);
  EXPECT_EQ(V.check(Request::check("ms2", "NoTest")).Verdict,
            Status::Error);
  EXPECT_EQ(V.check(Request::check("ms2", "T0").model("badmodel")).Verdict,
            Status::Error);
}

TEST(ApiCheck, FreshPipelineMatchesSession) {
  Verifier V;
  Request Base = Request::check("ms2", "T0").model("sc").noCache();
  Result Sess = V.check(Base);
  Result Fresh = V.check(Request(Base).freshPipeline());
  EXPECT_EQ(Sess.Verdict, Fresh.Verdict);
  EXPECT_EQ(Sess.Observations, Fresh.Observations);
}

TEST(ApiCheck, SourceAndNotationRequests) {
  Verifier V;
  // The built-in treiber stack source run as a user source.
  Result R = V.check(Request::check()
                         .source(implementationSource("treiber")
                                     .substr(preludeSource().size()))
                         .label("user-treiber")
                         .dataType("stack")
                         .notation("( u | o )")
                         .model("sc"));
  EXPECT_EQ(R.Verdict, Status::Pass) << R.Message;
  EXPECT_EQ(R.Impl, "user-treiber");
  EXPECT_EQ(R.Test, "custom");
}

//===----------------------------------------------------------------------===//
// The shared versioned JSON schema
//===----------------------------------------------------------------------===//

TEST(ApiJson, SchemaVersionPresent) {
  Verifier V;
  Result R = V.check(Request::check("ms2", "T0").model("sc"));
  std::string J = R.json(false);
  EXPECT_NE(J.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_EQ(J.find("\"seconds\""), std::string::npos);
  std::string JT = R.json(true);
  EXPECT_NE(JT.find("\"wall_seconds\""), std::string::npos);
}

TEST(ApiJson, SingleCheckMatchesOneCellMatrixReport) {
  // The facade's single-check JSON must be byte-identical to the engine
  // rendering the same verdict as a one-cell matrix report.
  Verifier V;
  Result R = V.check(Request::check("ms2", "T0").model("sc").noCache());

  harness::RunOptions Opts;
  Opts.Check.Model = memmodel::ModelParams::sc();
  engine::MatrixCell Cell;
  Cell.Impl = "ms2";
  Cell.Test = "T0";
  Cell.Model = memmodel::ModelParams::sc();
  engine::MatrixReport Rep =
      engine::MatrixRunner(1).run({Cell}, harness::catalogCellRunner(Opts));
  ASSERT_EQ(Rep.Cells.size(), 1u);
  EXPECT_EQ(R.json(false), Rep.json(false));
}

TEST(ApiJson, MatrixReportThroughFacadeIsDeterministic) {
  Verifier V;
  Request Req = Request::matrix()
                    .impls({"ms2"})
                    .tests({"T0", "Tpc2"})
                    .models({"sc", "tso"});
  Report R1 = V.matrix(Request(Req).jobs(1));
  Report R4 = V.matrix(Request(Req).jobs(4));
  ASSERT_TRUE(R1.ok());
  ASSERT_TRUE(R4.ok());
  EXPECT_EQ(R1.cellCount(), 4u);
  EXPECT_EQ(R1.json(false), R4.json(false));
  EXPECT_NE(R1.json(false).find("\"schema_version\": 1"),
            std::string::npos);
  EXPECT_NE(R1.json(false).find("\"weakest_passing\""),
            std::string::npos);
  EXPECT_TRUE(R1.allCompleted());
  EXPECT_EQ(R1.count(Status::Pass), 4);
}

TEST(ApiJson, SweepRunsTheFullLattice) {
  Verifier V;
  Report R =
      V.matrix(Request::sweep().impls({"treiber"}).tests({"U0"}).jobs(2));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.cellCount(), memmodel::latticeModels().size());
  EXPECT_NE(R.json(false).find("\"weakest_passing\""),
            std::string::npos);
  std::vector<Report::Cell> Cells = R.cells();
  ASSERT_EQ(Cells.size(), R.cellCount());
  EXPECT_EQ(Cells[0].Impl, "treiber");
  EXPECT_EQ(Cells[0].Test, "U0");
  EXPECT_EQ(Cells[0].Model, "serial"); // lattice is strongest-first
}

/// Runs \p Fn under an in-process tracer; the number of session-engine
/// rounds it ran (the fresh pipeline records none).
template <typename Fn> size_t engineRounds(Fn &&Run) {
  obs::Tracer T;
  {
    obs::TraceContext Ctx(&T);
    Run();
  }
  size_t Rounds = 0;
  for (const obs::TraceEvent &E : T.events())
    Rounds += E.Cat == "engine" && E.Name == "round";
  return Rounds;
}

/// One parsed cell of a report's timing-free JSON.
struct SweepCell {
  std::string Model, Status, Counterexample;
  long long Observations = -1;
  int BoundIterations = -1;
};

std::vector<SweepCell> sweepCells(const Report &R) {
  support::JsonValue Doc;
  std::string Err;
  EXPECT_TRUE(support::parseJson(R.json(false), Doc, Err)) << Err;
  std::vector<SweepCell> Out;
  if (const support::JsonValue *Cells = Doc.find("cells"))
    for (const support::JsonValue &C : Cells->Items) {
      SweepCell Cell;
      Cell.Model = C.find("model")->asString();
      Cell.Status = C.find("status")->asString();
      if (const support::JsonValue *V = C.find("counterexample"))
        Cell.Counterexample = V->asString();
      Cell.Observations = std::stoll(C.find("observations")->NumText);
      Cell.BoundIterations = C.find("bound_iterations")->asInt();
      Out.push_back(Cell);
    }
  return Out;
}

TEST(ApiJson, SweepWithSharedSpecsMatchesFreshPipeline) {
  // Sweeps share mined specifications across lattice points; the fresh
  // pipeline mines every cell from scratch on fresh solvers. Verdicts,
  // observation counts and counterexample presence must agree. Which
  // witness a failing cell reports is the solver's choice (the fresh
  // pipeline's solvers see other clauses), so each side's counterexample
  // observation must instead lie outside the serial specification.
  for (auto [Impl, Test, Strip] :
       {std::tuple<const char *, const char *, bool>{"msn", "T0", true},
        {"lazylist", "Sac", false}}) {
    SCOPED_TRACE(std::string(Impl) + "/" + Test);
    Verifier V;
    Request Req =
        Request::sweep().impls({Impl}).tests({Test}).jobs(1).noCache();
    if (Strip)
      Req.stripFences();
    Report Shared, Fresh;
    EXPECT_GT(engineRounds([&] { Shared = V.matrix(Req); }), 0u);
    EXPECT_EQ(engineRounds(
                  [&] { Fresh = V.matrix(Request(Req).freshPipeline()); }),
              0u);
    ASSERT_TRUE(Shared.allCompleted());
    ASSERT_TRUE(Fresh.allCompleted());

    Request Serial = Request::check(Impl, Test).model("serial").noCache();
    if (Strip)
      Serial.stripFences();
    Result Spec = V.check(Serial.freshPipeline());
    ASSERT_EQ(Spec.Verdict, Status::Pass) << Spec.Message;
    auto InSpec = [&](const std::string &Obs) {
      return std::find(Spec.Observations.begin(), Spec.Observations.end(),
                       Obs) != Spec.Observations.end();
    };

    std::vector<SweepCell> S = sweepCells(Shared), F = sweepCells(Fresh);
    ASSERT_EQ(S.size(), memmodel::latticeModels().size());
    ASSERT_EQ(S.size(), F.size());
    for (size_t I = 0; I < S.size(); ++I) {
      SCOPED_TRACE(S[I].Model);
      EXPECT_EQ(S[I].Model, F[I].Model);
      EXPECT_EQ(S[I].Status, F[I].Status);
      EXPECT_EQ(S[I].Observations, F[I].Observations);
      EXPECT_EQ(S[I].Counterexample.empty(), F[I].Counterexample.empty());
      for (const SweepCell *C : {&S[I], &F[I]})
        if (!C->Counterexample.empty())
          EXPECT_FALSE(InSpec(C->Counterexample)) << C->Counterexample;
    }
    EXPECT_TRUE(InSpec(Spec.Observations.front())); // renderings match
  }
}

TEST(ApiJson, SweepSeedsBoundsFromStrongerPassingPoints) {
  // A sweep starts each lattice point from the final bounds of its
  // program's stronger passing points. Against independent cold single
  // checks (noCache() also skips cross-request seeding): the same
  // verdict at every point, never more bound rounds, and fewer rounds in
  // total.
  Verifier V;
  int SweepRounds = 0, SingleRounds = 0;
  for (auto [Impl, Test] : {std::pair<const char *, const char *>{"msn", "T0"},
                            {"lazylist", "Sac"},
                            {"harris", "Sac"}})
    for (bool Strip : {false, true}) {
      SCOPED_TRACE(std::string(Impl) + "/" + Test +
                   (Strip ? " stripped" : " fenced"));
      Request Sweep =
          Request::sweep().impls({Impl}).tests({Test}).jobs(1).noCache();
      Sweep.stripFences(Strip);
      Report Rep = V.matrix(Sweep);
      ASSERT_TRUE(Rep.allCompleted());
      for (const SweepCell &C : sweepCells(Rep)) {
        SCOPED_TRACE(C.Model);
        Request One = Request::check(Impl, Test).model(C.Model).noCache();
        One.stripFences(Strip);
        Result R = V.check(One);
        EXPECT_EQ(C.Status, statusName(R.Verdict));
        EXPECT_LE(C.BoundIterations, R.Stats.BoundIterations);
        SweepRounds += C.BoundIterations;
        SingleRounds += R.Stats.BoundIterations;
      }
    }
  EXPECT_LT(SweepRounds, SingleRounds);
}

TEST(ApiJson, SharedSpecSweepIsIdenticalAcrossJobCounts) {
  // Lazy-list bounds grow, so cells publish and look up grown-bound
  // specifications - concurrently at jobs(4).
  Verifier V;
  Request Req = Request::sweep().impls({"lazylist"}).tests({"Sac"});
  Report R1 = V.matrix(Request(Req).jobs(1));
  Report R4 = V.matrix(Request(Req).jobs(4));
  ASSERT_TRUE(R1.allCompleted());
  EXPECT_EQ(R1.json(false), R4.json(false));
}

TEST(ApiJson, TableSummaryCountsEveryCell) {
  // One probe is not enough for msn's loops: its cell exhausts the
  // bounds while ms2's passes. The summary line must still account for
  // every cell.
  Verifier V;
  Report R = V.matrix(Request::matrix()
                          .impls({"ms2", "msn"})
                          .tests({"T0"})
                          .models({"sc"})
                          .maxProbes(1));
  ASSERT_TRUE(R.ok()) << R.error();
  ASSERT_EQ(R.count(Status::BoundsExhausted), 1);
  const std::string Table = R.table();
  const size_t At = Table.find(" cells: ");
  ASSERT_NE(At, std::string::npos) << Table;
  const size_t LineStart = Table.rfind('\n', At) + 1;
  const std::string Counts =
      Table.substr(At + 8, Table.find(" (", At) - (At + 8));
  EXPECT_NE(Counts.find("1 bounds-exhausted"), std::string::npos) << Counts;
  int Sum = 0;
  std::istringstream In(Counts);
  for (std::string Item; std::getline(In, Item, ',');)
    Sum += std::atoi(Item.c_str());
  EXPECT_EQ(Sum, std::atoi(Table.c_str() + LineStart)) << Table;
  EXPECT_EQ(Sum, static_cast<int>(R.cellCount()));
}

TEST(ApiJson, MatrixErrorsAreReported) {
  Verifier V;
  Report R = V.matrix(Request::matrix().models({"nosuchmodel"}));
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.error().find("nosuchmodel"), std::string::npos);
  EXPECT_EQ(R.cellCount(), 0u);
}

TEST(ApiJson, MatrixCellsHonourRefSpec) {
  // The lazy list without its 'marked' initialization is sequentially
  // buggy: mined from itself it is a SEQUENTIAL-BUG, mined from the
  // reference set it fails inclusion. A matrix cell mines from wherever
  // the single check does.
  Verifier V;
  Result Single = V.check(Request::check("lazylist", "Sac")
                              .model("sc")
                              .define("LAZYLIST_INIT_BUG")
                              .refSpec()
                              .noCache());
  EXPECT_EQ(Single.Verdict, Status::Fail) << Single.Message;

  Request Mat = Request::matrix()
                    .impls({"lazylist"})
                    .tests({"Sac"})
                    .models({"sc"})
                    .define("LAZYLIST_INIT_BUG");
  Report Own = V.matrix(Mat);
  Report Ref = V.matrix(Request(Mat).refSpec());
  ASSERT_EQ(Own.cellCount(), 1u);
  ASSERT_EQ(Ref.cellCount(), 1u);
  EXPECT_EQ(Own.cells()[0].Verdict, Status::SequentialBug);
  EXPECT_EQ(Ref.cells()[0].Verdict, Single.Verdict);
}

//===----------------------------------------------------------------------===//
// Exit codes and status names
//===----------------------------------------------------------------------===//

TEST(ApiStatus, ExitCodeConvention) {
  EXPECT_EQ(exitCodeFor(Status::Pass), 0);
  EXPECT_EQ(exitCodeFor(Status::Fail), 1);
  EXPECT_EQ(exitCodeFor(Status::SequentialBug), 2);
  EXPECT_EQ(exitCodeFor(Status::BoundsExhausted), 3);
  EXPECT_EQ(exitCodeFor(Status::Error), 4);
  EXPECT_EQ(exitCodeFor(Status::Cancelled), 5);
}

TEST(ApiStatus, Names) {
  EXPECT_STREQ(statusName(Status::Pass), "PASS");
  EXPECT_STREQ(statusName(Status::SequentialBug), "SEQUENTIAL-BUG");
  EXPECT_STREQ(statusName(Status::Cancelled), "CANCELLED");
}

//===----------------------------------------------------------------------===//
// Cancellation, deadlines, and event streaming
//===----------------------------------------------------------------------===//

namespace {
/// Matrix runs invoke callbacks from worker threads - count atomically.
struct CountingSink : EventSink {
  std::atomic<int> Rounds{0}, Mined{0}, Cells{0}, Verdicts{0};
  void onRoundStarted(const RoundEvent &) override { ++Rounds; }
  void onObservationsMined(const ObservationsMinedEvent &) override {
    ++Mined;
  }
  void onCellFinished(const CellFinishedEvent &) override { ++Cells; }
  void onVerdict(const VerdictEvent &) override { ++Verdicts; }
};
} // namespace

TEST(ApiCancel, PreCancelledTokenStopsBeforeWork) {
  Verifier V;
  CancelToken Token;
  Token.cancel();
  Result R =
      V.check(Request::check("ms2", "T0").model("sc"), nullptr, Token);
  EXPECT_EQ(R.Verdict, Status::Cancelled);
  EXPECT_EQ(R.Message, "check cancelled");
  // Cancelled results are never cached.
  EXPECT_EQ(V.cacheStats().Entries, 0u);
}

namespace {
/// Cancels its token the first time mining reports observations - the
/// check is then mid-round, between phases.
struct CancelAfterMining : EventSink {
  CancelToken Token;
  void onObservationsMined(const ObservationsMinedEvent &) override {
    Token.cancel();
  }
};
} // namespace

TEST(ApiCancel, MidRoundCancellationReturnsCleanly) {
  Verifier V;
  CancelAfterMining Sink;
  Result R = V.check(Request::check("ms2", "Tpc2").model("sc"), &Sink,
                     Sink.Token);
  EXPECT_EQ(R.Verdict, Status::Cancelled);
  EXPECT_EQ(R.Message, "check cancelled");
  // The verifier remains usable after a cancelled run.
  Result R2 = V.check(Request::check("ms2", "T0").model("sc"));
  EXPECT_EQ(R2.Verdict, Status::Pass);
}

TEST(ApiCancel, ExpiredDeadlineCancels) {
  Verifier V;
  Result R = V.check(
      Request::check("ms2", "Tpc2").model("sc").deadline(1e-9));
  EXPECT_EQ(R.Verdict, Status::Cancelled);
  EXPECT_EQ(R.Message, "deadline exceeded");
}

TEST(ApiCancel, CancelledMatrixIsNotCompleted) {
  Verifier V;
  CancelToken Token;
  Token.cancel();
  CountingSink Sink;
  Report R = V.matrix(Request::matrix()
                          .impls({"ms2"})
                          .tests({"T0"})
                          .models({"sc", "tso"}),
                      &Sink, Token);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.count(Status::Cancelled), 2);
  EXPECT_FALSE(R.allCompleted()); // a cancelled sweep is not a verdict
  EXPECT_NE(R.json(false).find("\"cancelled\": 2"), std::string::npos);
  EXPECT_NE(R.table().find("2 cancelled"), std::string::npos);
  // Skipped cells still complete the progress stream.
  EXPECT_EQ(Sink.Cells, 2);
}

TEST(ApiCancel, GenerousDeadlineDoesNotFire) {
  Verifier V;
  Result R = V.check(
      Request::check("ms2", "T0").model("sc").deadline(3600));
  EXPECT_EQ(R.Verdict, Status::Pass);
}

//===----------------------------------------------------------------------===//
// Events
//===----------------------------------------------------------------------===//

TEST(ApiEvents, SingleCheckStreams) {
  Verifier V;
  CountingSink Sink;
  Result R = V.check(Request::check("ms2", "T0").model("sc"), &Sink);
  EXPECT_EQ(R.Verdict, Status::Pass);
  EXPECT_GE(Sink.Rounds, 1);
  EXPECT_GE(Sink.Mined, 1);
  EXPECT_EQ(Sink.Verdicts, 1);
}

TEST(ApiEvents, InvalidRequestsStillProduceAVerdictEvent) {
  Verifier V;
  CountingSink Sink;
  V.check(Request::check("no-such-impl", "T0"), &Sink);
  V.matrix(Request::matrix().models({"bogus"}), &Sink);
  V.synthesize(Request::synthesis("ms2", "NoSuchTest"), &Sink);
  V.weakestModels(Request::weakestModel("no-such-impl", "T0"), &Sink);
  V.weakestModels(Request::weakestModel("ms2", "T0").models({"bogus"}),
                  &Sink);
  EXPECT_EQ(Sink.Verdicts, 5); // one terminal event per failed request
}

TEST(ApiEvents, WeakestModelSearchEndsWithOneVerdict) {
  struct LastVerdictSink : CountingSink {
    VerdictEvent Last;
    void onVerdict(const VerdictEvent &E) override {
      CountingSink::onVerdict(E);
      Last = E;
    }
  };
  Verifier V;
  LastVerdictSink Sink;
  WeakestOutcome W = V.weakestModels(
      Request::weakestModel("ms2", "T0").models({"sc", "tso"}), &Sink);
  ASSERT_TRUE(W.Ok) << W.Error;
  EXPECT_EQ(Sink.Verdicts, 1);
  EXPECT_EQ(Sink.Last.Label, "ms2:T0:weakest");
  EXPECT_EQ(Sink.Last.Verdict, Status::Pass);
  EXPECT_EQ(Sink.Last.Message, "2 of 2 models pass");
}

TEST(ApiEvents, MatrixStreamsCellCompletions) {
  Verifier V;
  CountingSink Sink;
  Report R = V.matrix(Request::matrix()
                          .impls({"ms2"})
                          .tests({"T0"})
                          .models({"sc", "tso"})
                          .jobs(2),
                      &Sink);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Sink.Cells, 2);
  EXPECT_EQ(Sink.Verdicts, 1); // one overall matrix verdict
}

//===----------------------------------------------------------------------===//
// The cross-run result cache
//===----------------------------------------------------------------------===//

TEST(ApiCache, SecondIdenticalRequestHitsAndIsByteIdentical) {
  Verifier V;
  Request Req = Request::check("ms2", "T0").model("sc");
  Result R1 = V.check(Req);
  ASSERT_EQ(R1.Verdict, Status::Pass);
  EXPECT_FALSE(R1.FromCache);

  Result R2 = V.check(Req);
  EXPECT_TRUE(R2.FromCache);
  EXPECT_EQ(R2.Verdict, R1.Verdict);
  EXPECT_EQ(R1.json(false), R2.json(false));

  CacheStats S = V.cacheStats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_GE(S.Misses, 1u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(ApiCache, ChangingAFenceInvalidatesTheFingerprint) {
  Verifier V;
  Result R1 = V.check(Request::check("msn", "T0").model("sc"));
  ASSERT_EQ(R1.Verdict, Status::Pass);
  // Same request with one fence stripped: a different program, so a
  // miss, not a hit.
  Result R2 =
      V.check(Request::check("msn", "T0").model("sc").stripFences());
  EXPECT_FALSE(R2.FromCache);
  EXPECT_EQ(V.cacheStats().Hits, 0u);
  EXPECT_EQ(V.cacheStats().Entries, 2u);
}

TEST(ApiCache, OptionsArePartOfTheKey) {
  Verifier V;
  V.check(Request::check("ms2", "T0").model("sc"));
  Result R = V.check(Request::check("ms2", "T0").model("tso"));
  EXPECT_FALSE(R.FromCache);
  EXPECT_EQ(V.cacheStats().Entries, 2u);
}

TEST(ApiCache, BoundsSeedAcrossModelsOfTheSameProgram) {
  Verifier V;
  // msn's retry loops make T0 grow bounds lazily, so the pass records
  // non-trivial final bounds.
  Result R1 = V.check(Request::check("msn", "T0").model("sc"));
  ASSERT_EQ(R1.Verdict, Status::Pass);
  ASSERT_FALSE(R1.FinalBounds.empty());
  // Different model, same program fingerprint: the pass above seeds the
  // initial bounds of this run (the Fig. 10 re-run workflow).
  Result R2 = V.check(Request::check("msn", "T0").model("tso"));
  EXPECT_EQ(R2.Verdict, Status::Pass);
  EXPECT_EQ(V.cacheStats().BoundsSeeded, 1u);
  // Seeding skips the lazy-unrolling rounds the first run needed.
  EXPECT_LE(R2.Stats.BoundIterations, R1.Stats.BoundIterations);
}

TEST(ApiCache, NoCacheBypasses) {
  Verifier V;
  V.check(Request::check("ms2", "T0").model("sc"));
  Result R = V.check(Request::check("ms2", "T0").model("sc").noCache());
  EXPECT_FALSE(R.FromCache);
}

TEST(ApiCache, UncachedRepeatsMatchAFreshVerifier) {
  // noCache() promises cold-run reproducibility: however often one
  // Verifier has run a request, its timing-free JSON (SAT sizes,
  // counterexample) matches a fresh Verifier's byte for byte.
  const Request Cases[] = {
      Request::check("snark", "D0").model("sc").noCache(),
      Request::check("msn", "T0").model("relaxed").stripFences().noCache(),
  };
  for (const Request &Req : Cases) {
    SCOPED_TRACE(Req.ImplName + " " + Req.TestName);
    Result Cold = Verifier().check(Req);
    ASSERT_NE(Cold.Verdict, Status::Error) << Cold.Message;
    Verifier V;
    for (int Run = 1; Run <= 3; ++Run) {
      SCOPED_TRACE("run " + std::to_string(Run));
      EXPECT_EQ(V.check(Req).json(false), Cold.json(false));
    }
  }
}

TEST(ApiCache, UnparseableCacheFileIsNotClobbered) {
  // Each input is refused whole: nothing of it merges into the cache,
  // and neither saveCache() nor the Verifier's exit touches the file.
  const std::string Header =
      std::string("checkfence-result-cache 3 ") + versionString() + "\n";
  Result Good;
  Good.Verdict = Status::Pass;
  Good.Impl = "ms2";
  Good.Test = "T0";
  Good.Model = "sc";
  Good.Observations = {"[0 1]"};
  const std::string Entry =
      R"({"key": "prog1|opts", "result": )" + api::encodeResult(Good) + "}";
  std::string Truncated = Entry;
  Truncated.resize(Entry.size() / 2);
  std::string NoVerdict = Entry;
  const std::string Verdict = R"("verdict": "PASS", )";
  ASSERT_NE(NoVerdict.find(Verdict), std::string::npos);
  NoVerdict.erase(NoVerdict.find(Verdict), Verdict.size());
  const std::string Inputs[] = {
      "something that is not a checkfence cache\n",
      // The previous line-oriented format.
      std::string("checkfence-result-cache 2 ") + versionString() +
          "\nentry prog1|opts\nimpl ms2\ntest T0\nmodel sc\nstatus PASS\n"
          "message ok\nstats 1 1 40 3 3 300 900\n"
          "times 0.100000 0.200000 0.010000 0.500000\nobs 1\no [0 1]\n"
          "cex 0\nbounds 0\nend\n",
      // A good first entry does not save a truncated second one.
      Header + Entry + "\n" + Truncated,
      Header + NoVerdict + "\n",
  };

  std::string Path = testing::TempDir() + "cf_api_not_a_cache.txt";
  for (const std::string &Input : Inputs) {
    {
      std::ofstream Out(Path);
      Out << Input;
    }
    VerifierConfig Cfg;
    Cfg.CachePath = Path;
    {
      Verifier V(Cfg);
      EXPECT_EQ(V.cacheStats().Entries, 0u) << Input;
      V.check(Request::check("ms2", "T0").model("sc"));
      // An explicit save refuses too.
      EXPECT_FALSE(V.saveCache()) << Input;
    } // destructor must NOT overwrite the unrecognized file
    std::ifstream In(Path);
    std::stringstream Kept;
    Kept << In.rdbuf();
    EXPECT_EQ(Kept.str(), Input);
  }
  std::remove(Path.c_str());
}

TEST(ApiCache, UnreadableCacheFileIsNotClobbered) {
  // A non-empty file the process cannot read is not replaced either.
  std::string Path = testing::TempDir() + "cf_api_unreadable_cache.txt";
  const std::string Input = "not a cache\n";
  {
    std::ofstream Out(Path);
    Out << Input;
  }
  namespace fs = std::filesystem;
  fs::permissions(Path, fs::perms::owner_write);
  if (std::ifstream(Path)) {
    fs::remove(Path);
    GTEST_SKIP() << "file permissions do not bind this process";
  }
  {
    VerifierConfig Cfg;
    Cfg.CachePath = Path;
    Verifier V(Cfg);
    V.check(Request::check("ms2", "T0").model("sc"));
    EXPECT_FALSE(V.saveCache());
  }
  fs::permissions(Path, fs::perms::owner_read | fs::perms::owner_write);
  std::ifstream In(Path);
  std::stringstream Kept;
  Kept << In.rdbuf();
  EXPECT_EQ(Kept.str(), Input);
  fs::remove(Path);
}

TEST(ApiCache, PersistsAcrossVerifiers) {
  std::string Path = testing::TempDir() + "cf_api_cache_test.txt";
  std::remove(Path.c_str());

  VerifierConfig Cfg;
  Cfg.CachePath = Path;
  const Request Pass = Request::check("ms2", "T0").model("sc");
  const Request Fail =
      Request::check("ms2", "T0").model("relaxed").stripFences();
  Result P1, F1;
  {
    Verifier V(Cfg);
    P1 = V.check(Pass);
    F1 = V.check(Fail);
    ASSERT_EQ(P1.Verdict, Status::Pass);
    ASSERT_EQ(F1.Verdict, Status::Fail);
    ASSERT_TRUE(F1.HasCounterexample);
  } // destructor saves the cache

  Verifier V2(Cfg);
  for (const auto &[Req, R1] : {std::make_pair(Pass, P1),
                                std::make_pair(Fail, F1)}) {
    Result R2 = V2.check(Req);
    EXPECT_TRUE(R2.FromCache);
    EXPECT_EQ(R1.json(false), R2.json(false));
    EXPECT_EQ(R1.Observations, R2.Observations);
    EXPECT_EQ(R1.FinalBounds, R2.FinalBounds);
    EXPECT_EQ(R1.HasCounterexample, R2.HasCounterexample);
    EXPECT_EQ(R1.CounterexampleTrace, R2.CounterexampleTrace);
    EXPECT_EQ(R1.CounterexampleColumns, R2.CounterexampleColumns);
    EXPECT_EQ(R1.CounterexampleObservation, R2.CounterexampleObservation);
    // Every stat reloads exactly, all six timings included.
    const ResultStats &A = R1.Stats, &B = R2.Stats;
    EXPECT_EQ(A.ObservationCount, B.ObservationCount);
    EXPECT_EQ(A.BoundIterations, B.BoundIterations);
    EXPECT_EQ(A.UnrolledInstrs, B.UnrolledInstrs);
    EXPECT_EQ(A.Loads, B.Loads);
    EXPECT_EQ(A.Stores, B.Stores);
    EXPECT_EQ(A.SatVars, B.SatVars);
    EXPECT_EQ(A.SatClauses, B.SatClauses);
    EXPECT_EQ(A.EncodeSeconds, B.EncodeSeconds);
    EXPECT_EQ(A.SolveSeconds, B.SolveSeconds);
    EXPECT_EQ(A.MiningSeconds, B.MiningSeconds);
    EXPECT_EQ(A.IncludeSeconds, B.IncludeSeconds);
    EXPECT_EQ(A.ProbeSeconds, B.ProbeSeconds);
    EXPECT_EQ(A.TotalSeconds, B.TotalSeconds);
    EXPECT_EQ(A.RacesWon, B.RacesWon);
    EXPECT_EQ(A.OracleAttempts, B.OracleAttempts);
    EXPECT_EQ(A.OracleDischarges, B.OracleDischarges);
    EXPECT_EQ(A.OracleSeconds, B.OracleSeconds);
    EXPECT_EQ(A.AnalysisAttempts, B.AnalysisAttempts);
    EXPECT_EQ(A.AnalysisDischarges, B.AnalysisDischarges);
    EXPECT_EQ(A.AnalysisSeconds, B.AnalysisSeconds);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Other request kinds
//===----------------------------------------------------------------------===//

TEST(ApiWeakest, ActiveSearchOverNamedModels) {
  Verifier V;
  WeakestOutcome O = V.weakestModels(
      Request::weakestModel("ms2", "T0").models({"sc", "tso"}));
  ASSERT_TRUE(O.Ok) << O.Error;
  ASSERT_EQ(O.Weakest.size(), 1u);
  EXPECT_EQ(O.Weakest[0], "tso");
  EXPECT_EQ(O.ModelsPassed, 2);
  // tso passing implies sc by monotonicity: at most one executed cell
  // plus one inferred.
  EXPECT_EQ(O.CellsRun + O.CellsInferred, 2);
  EXPECT_GE(O.CellsInferred, 1);
}

TEST(ApiFresh, WeakestAndSynthesisHonourFreshPipeline) {
  Verifier V;
  Request W = Request::weakestModel("msn", "T0").stripFences();
  WeakestOutcome Sess, Fresh;
  EXPECT_GT(engineRounds([&] { Sess = V.weakestModels(W); }), 0u);
  EXPECT_EQ(engineRounds([&] {
              Fresh = V.weakestModels(Request(W).freshPipeline());
            }),
            0u);
  ASSERT_TRUE(Sess.Ok && Fresh.Ok) << Sess.Error << Fresh.Error;
  EXPECT_EQ(Sess.Weakest, Fresh.Weakest);
  EXPECT_EQ(Sess.CellsRun, Fresh.CellsRun);

  Request S = Request::synthesis("msn", "T0").model("relaxed");
  SynthOutcome SS, SF;
  EXPECT_GT(engineRounds([&] { SS = V.synthesize(S); }), 0u);
  EXPECT_EQ(
      engineRounds([&] { SF = V.synthesize(Request(S).freshPipeline()); }),
      0u);
  ASSERT_TRUE(SS.Success && SF.Success) << SS.Message << SF.Message;
  ASSERT_EQ(SS.Fences.size(), SF.Fences.size());
  for (size_t I = 0; I < SS.Fences.size(); ++I) {
    EXPECT_EQ(SS.Fences[I].Line, SF.Fences[I].Line);
    EXPECT_EQ(SS.Fences[I].Kind, SF.Fences[I].Kind);
  }
}

TEST(ApiSynthesis, TimingFreeJsonIsReproducible) {
  // Two fresh Verifiers run the same search; without timings the
  // rendered outcome must match byte for byte and carry no "*seconds"
  // field.
  auto Run = [] {
    Verifier V;
    return V.synthesize(
        Request::synthesis("msn", "T0").model("relaxed").jobs(1));
  };
  SynthOutcome A = Run();
  SynthOutcome B = Run();
  ASSERT_TRUE(A.Success) << A.Message;
  EXPECT_EQ(A.json(/*IncludeTimings=*/false),
            B.json(/*IncludeTimings=*/false));
  EXPECT_EQ(A.json(/*IncludeTimings=*/false).find("seconds"),
            std::string::npos);
  EXPECT_NE(A.json().find("\"repair_seconds\""), std::string::npos);
}

TEST(ApiSynthesis, FencesAndCutsLandAfterThePrelude) {
  // Fences belong in the implementation, never inside the prelude's
  // cas/lock builtins: every synthesized fence and every suggested cut
  // sits after the prelude's last line.
  const std::string Prelude = preludeSource();
  const int PreludeLastLine =
      static_cast<int>(std::count(Prelude.begin(), Prelude.end(), '\n'));
  Verifier V;
  SynthOutcome S =
      V.synthesize(Request::synthesis("msn", "T0").model("relaxed"));
  ASSERT_TRUE(S.Success) << S.Message;
  ASSERT_FALSE(S.Fences.empty());
  for (const SynthFence &F : S.Fences)
    EXPECT_GT(F.Line, PreludeLastLine) << F.Kind;

  AnalysisOutcome A = V.analyze(Request::analyze("msn", "T0"));
  ASSERT_TRUE(A.Ok) << A.Error;
  size_t Cuts = 0;
  for (const AnalysisModelRow &Row : A.Models)
    for (const SynthFence &C : Row.Cuts) {
      EXPECT_GT(C.Line, PreludeLastLine) << Row.Model << " " << C.Kind;
      ++Cuts;
    }
  EXPECT_GT(Cuts, 0u);
}

TEST(ApiSynthesis, RefSpecIsAnError) {
  // Synthesis mines from each candidate placement; a refSpec() request
  // is refused rather than silently ignored.
  Verifier V;
  SynthOutcome S = V.synthesize(Request::synthesis("msn", "T0").refSpec());
  EXPECT_FALSE(S.Success);
  EXPECT_NE(S.Message.find("refSpec()"), std::string::npos) << S.Message;
}

TEST(ApiLitmus, StoreBufferingReachability) {
  Verifier V;
  const char *Sb = R"(
extern void observe(int v);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)";
  Request Base =
      Request::litmus(Sb).thread("t1_op").thread("t2_op").expect({0, 0});
  LitmusOutcome SC = V.observable(Request(Base).model("sc"));
  ASSERT_TRUE(SC.Ok) << SC.Error;
  EXPECT_FALSE(SC.Reachable);
  LitmusOutcome Rlx = V.observable(Request(Base).model("relaxed"));
  ASSERT_TRUE(Rlx.Ok) << Rlx.Error;
  EXPECT_TRUE(Rlx.Reachable);
}

TEST(ApiLitmus, MalformedRequestsAreErrorsNotCrashes) {
  Verifier V;
  const char *Sb = R"(
extern void observe(int v);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)";
  Request Both = Request::litmus(Sb).thread("t1_op").thread("t2_op");
  const std::vector<long long> Twelve(12, 0);
  const struct {
    const char *Label;
    Request Req;
    const char *Message;
  } Cases[] = {
      {"no expect", Request(Both).model("relaxed"),
       "litmus expects 2 observed values, got 0"},
      {"missing thread",
       Request::litmus(Sb).thread("t1_op").thread("t9_op").expect({0, 0}),
       "t9_op"},
      {"too few values", Request(Both).expect({0}),
       "litmus expects 2 observed values, got 1"},
      {"too many values", Request(Both).expect(Twelve),
       "litmus expects 2 observed values, got 12"},
  };
  for (const auto &C : Cases) {
    SCOPED_TRACE(C.Label);
    LitmusOutcome Out = V.observable(C.Req);
    EXPECT_FALSE(Out.Ok);
    EXPECT_FALSE(Out.Reachable);
    EXPECT_NE(Out.Error.find(C.Message), std::string::npos) << Out.Error;
  }
}

TEST(ApiCatalog, ListingsArePopulated) {
  EXPECT_EQ(listImplementations().size(), 6u);
  EXPECT_FALSE(listTests().empty());
  EXPECT_EQ(listModels().size(), 6u);
  EXPECT_NE(implementationSource("msn").find("fence"),
            std::string::npos);
  EXPECT_TRUE(implementationSource("nosuch").empty());
  EXPECT_FALSE(preludeSource().empty());
  EXPECT_STREQ(versionString(), "0.9.0");
}

} // namespace
