//===--- EngineTests.cpp - session engine and matrix runner tests ----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The session engine must be a pure optimization: for any cell it returns
// the same verdict and the same mined observation set as the from-scratch
// pipeline, while solving each unrolling on one solver shared by its
// mine/include/probe phases.
//
//===----------------------------------------------------------------------===//

#include "checker/CheckFence.h"
#include "engine/MatrixRunner.h"
#include "engine/SpecStore.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"
#include "lsl/Printer.h"
#include "obs/Trace.h"
#include "support/Fingerprint.h"

#include "checkfence/checkfence.h"

#include "gtest/gtest.h"

#include <atomic>
#include <map>
#include <mutex>

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::engine;
using namespace checkfence::harness;

namespace {

bool compileInto(const std::string &Source, lsl::Program &Prog) {
  frontend::DiagEngine Diags;
  return frontend::compileC(Source, {}, Prog, Diags);
}

//===----------------------------------------------------------------------===//
// Incremental vs from-scratch equivalence.
//===----------------------------------------------------------------------===//

/// Checks one (source, test) cell under \p Model through both pipelines
/// and asserts identical verdicts and observation sets.
void expectSessionMatchesFresh(const std::string &Source,
                               const std::string &Test,
                               memmodel::ModelParams Model) {
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(Source, Prog));
  TestSpec Spec = testByName(Test);
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  CheckOptions Opts;
  Opts.Model = Model;

  CheckResult Fresh = runCheckFresh(Prog, Threads, Opts);

  CheckResult Inc = runCheck(Prog, Threads, Opts);

  SCOPED_TRACE(Test + " on " + memmodel::modelName(Model));
  EXPECT_EQ(Inc.Status, Fresh.Status)
      << "session: " << Inc.Message << " / fresh: " << Fresh.Message;
  EXPECT_EQ(Inc.Spec, Fresh.Spec);
  // Note: FinalBounds may legitimately differ - a satisfiable probe's
  // model (and hence which loop instances grow first) depends on solver
  // state. Verdict and observation set may not. At equal final bounds
  // both pipelines encode the final instance through the same class, so
  // its size must match too.
  if (Inc.FinalBounds == Fresh.FinalBounds) {
    EXPECT_EQ(Inc.Stats.Inclusion.SatVars, Fresh.Stats.Inclusion.SatVars);
    EXPECT_EQ(Inc.Stats.Inclusion.SatClauses,
              Fresh.Stats.Inclusion.SatClauses);
    EXPECT_EQ(Inc.Stats.Inclusion.UnrolledInstrs,
              Fresh.Stats.Inclusion.UnrolledInstrs);
  }
}

TEST(SessionEquivalence, RefQueueT0AllModels) {
  for (memmodel::ModelParams M :
       {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
        memmodel::ModelParams::relaxed()})
    expectSessionMatchesFresh(impls::referenceFor("queue"), "T0", M);
}

TEST(SessionEquivalence, RefQueueTi2AllModels) {
  for (memmodel::ModelParams M :
       {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
        memmodel::ModelParams::relaxed()})
    expectSessionMatchesFresh(impls::referenceFor("queue"), "Ti2", M);
}

TEST(SessionEquivalence, RefSetS1AllModels) {
  for (memmodel::ModelParams M :
       {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
        memmodel::ModelParams::relaxed()})
    expectSessionMatchesFresh(impls::referenceFor("set"), "S1", M);
}

TEST(SessionEquivalence, MsnT0RelaxedWithAndWithoutFences) {
  // A PASS cell with bound growth and a FAIL cell (counterexample path).
  expectSessionMatchesFresh(impls::sourceFor("msn"), "T0",
                            memmodel::ModelParams::relaxed());

  frontend::LoweringOptions LO;
  LO.StripFences = true;
  frontend::DiagEngine Diags;
  lsl::Program Stripped;
  ASSERT_TRUE(frontend::compileC(impls::sourceFor("msn"), {}, Stripped,
                                 Diags, LO));
  TestSpec Spec = testByName("T0");
  std::vector<std::string> Threads = buildTestThreads(Stripped, Spec);
  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  CheckResult Fresh = runCheckFresh(Stripped, Threads, Opts);
  CheckResult Inc = runCheck(Stripped, Threads, Opts);
  EXPECT_EQ(Fresh.Status, Status::Fail);
  EXPECT_EQ(Inc.Status, Status::Fail);
  ASSERT_TRUE(Inc.Counterexample.has_value());
  // The specific counterexample model may differ between pipelines, but
  // both must exhibit an observation outside the (identical) spec.
  EXPECT_EQ(Inc.Spec, Fresh.Spec);
  EXPECT_EQ(Inc.Spec.count(Inc.Counterexample->Obs), 0u);
}

TEST(SessionEquivalence, RefspecModeMatches) {
  // Refset mining (Fig. 11a): spec mined from the reference queue while
  // checking msn. Exercises the second persistent context's probe reuse.
  lsl::Program Impl, Ref;
  ASSERT_TRUE(compileInto(impls::sourceFor("msn"), Impl));
  ASSERT_TRUE(compileInto(impls::referenceFor("queue"), Ref));
  TestSpec Spec = testByName("T0");
  std::vector<std::string> Threads = buildTestThreads(Impl, Spec);
  std::vector<std::string> RefThreads = buildTestThreads(Ref, Spec);
  ASSERT_EQ(Threads, RefThreads);

  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  CheckResult Fresh = runCheckFresh(Impl, Threads, Opts, &Ref);
  CheckResult Inc = runCheck(Impl, Threads, Opts, &Ref);
  EXPECT_EQ(Inc.Status, Fresh.Status)
      << "session: " << Inc.Message << " / fresh: " << Fresh.Message;
  EXPECT_EQ(Inc.Spec, Fresh.Spec);
}

TEST(SessionEquivalence, FreshOptionRunsTheReferencePipeline) {
  // CheckOptions::Fresh makes runCheck run runCheckFresh: the same
  // verdict, spec, final bounds and round count, and none of the session
  // engine's round spans (which the session engine does record).
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(impls::sourceFor("msn"), Prog));
  std::vector<std::string> Threads = buildTestThreads(Prog, testByName("T0"));
  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  Opts.Fresh = true;
  CheckResult Ref = runCheckFresh(Prog, Threads, Opts);

  auto RoundSpans = [&](const CheckOptions &O, CheckResult &R) {
    obs::Tracer T;
    {
      obs::TraceContext Ctx(&T);
      R = runCheck(Prog, Threads, O);
    }
    size_t Rounds = 0;
    for (const obs::TraceEvent &E : T.events())
      Rounds += E.Cat == "engine" && E.Name == "round";
    return Rounds;
  };
  CheckResult R;
  EXPECT_EQ(RoundSpans(Opts, R), 0u);
  EXPECT_EQ(R.Status, Ref.Status) << R.Message << " / " << Ref.Message;
  EXPECT_EQ(R.Spec, Ref.Spec);
  EXPECT_EQ(R.FinalBounds, Ref.FinalBounds);
  EXPECT_EQ(R.Stats.BoundIterations, Ref.Stats.BoundIterations);

  Opts.Fresh = false;
  CheckResult Session;
  EXPECT_GT(RoundSpans(Opts, Session), 0u);
  EXPECT_EQ(Session.Status, Ref.Status);
}

TEST(SessionEquivalence, BudgetErrorsReportTheirTotalTime) {
  // Both pipelines leave through one exit, so a check that runs out of
  // its conflict budget still reports how long it ran.
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(impls::sourceFor("msn"), Prog));
  std::vector<std::string> Threads = buildTestThreads(Prog, testByName("T0"));
  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  Opts.ConflictBudget = 1;
  for (bool Fresh : {true, false}) {
    SCOPED_TRACE(Fresh ? "fresh" : "session");
    Opts.Fresh = Fresh;
    CheckResult R = runCheck(Prog, Threads, Opts);
    EXPECT_EQ(R.Status, Status::Error) << R.Message;
    EXPECT_GT(R.Stats.TotalSeconds, 0);
  }
}

//===----------------------------------------------------------------------===//
// One solver per encoding: a check solves only the unrolling it is on.
//===----------------------------------------------------------------------===//

TEST(SessionSolver, ReportsTheFinalInstanceSize) {
  // msn T0 on Relaxed grows its retry loops, so the check re-encodes at
  // least once. The grown unrolling replaces the old one on a fresh
  // solver, so the reported SAT size is exactly that of a one-shot
  // encoding at the final bounds (Fig. 10), not a sum over unrollings.
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(impls::sourceFor("msn"), Prog));
  TestSpec Spec = testByName("T0");
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  int Grown = 0;
  Opts.Hooks.OnBoundGrown = [&](const std::string &, int) { ++Grown; };
  CheckResult R = runCheck(Prog, Threads, Opts);
  ASSERT_EQ(R.Status, Status::Pass) << R.Message;
  ASSERT_GT(Grown, 0) << "expected a bound-growth round";

  ProblemConfig Cfg;
  Cfg.Model = Opts.Model;
  SolveContext OneShot(Prog, Threads, R.FinalBounds, Cfg);
  const ProblemEncoding &Enc = OneShot.encoding();
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  EXPECT_EQ(R.Stats.Inclusion.UnrolledInstrs, Enc.stats().UnrolledInstrs);
  EXPECT_EQ(R.Stats.Inclusion.SatVars, Enc.stats().SatVars);
  EXPECT_EQ(R.Stats.Inclusion.SatClauses, Enc.stats().SatClauses);
}

//===----------------------------------------------------------------------===//
// MatrixRunner: determinism and parallel scheduling.
//===----------------------------------------------------------------------===//

TEST(MatrixRunner, TimingFreeReportIsIdenticalAcrossJobCounts) {
  std::vector<MatrixCell> Cells = expandMatrix(
      {"ms2", "msn"}, {"T0"},
      {memmodel::ModelParams::sc(), memmodel::ModelParams::relaxed()});
  ASSERT_EQ(Cells.size(), 4u);

  // Fenced and stripped: the stripped relaxed cells Fail, so the
  // comparison also covers counterexamples decoded from the session's
  // own solver.
  RunOptions Stripped;
  Stripped.StripFences = true;
  for (const RunOptions &Base : {RunOptions(), Stripped}) {
    SCOPED_TRACE(Base.StripFences ? "stripped" : "fenced");
    MatrixReport Seq = MatrixRunner(1).run(Cells, catalogCellRunner(Base));
    MatrixReport Par = MatrixRunner(4).run(Cells, catalogCellRunner(Base));

    ASSERT_EQ(Seq.Cells.size(), Par.Cells.size());
    EXPECT_TRUE(Seq.allCompleted());
    EXPECT_TRUE(Par.allCompleted());
    EXPECT_EQ(Seq.json(/*IncludeTimings=*/false),
              Par.json(/*IncludeTimings=*/false));
    // Cell order follows the input matrix regardless of completion order.
    for (size_t I = 0; I < Cells.size(); ++I) {
      EXPECT_EQ(Par.Cells[I].Cell.label(), Cells[I].label());
      EXPECT_EQ(Par.Cells[I].Result.Status, Seq.Cells[I].Result.Status);
    }
    if (Base.StripFences)
      EXPECT_GT(Seq.countWithStatus(Status::Fail), 0);
  }
}

TEST(MatrixRunner, SeedsEachProgramFromItsStrongerPassingCells) {
  // Two programs, models given weakest first. Each program's cells must
  // run strongest first, and each starts from the pointwise max of the
  // final bounds of its own program's stronger passing cells - never a
  // failing cell's, never another program's.
  using memmodel::ModelParams;
  const std::vector<ModelParams> Models = {
      ModelParams::relaxed(), ModelParams::tso(), ModelParams::sc(),
      ModelParams::serial()};
  std::vector<MatrixCell> Cells;
  for (const char *Impl : {"a", "b"})
    for (const ModelParams &M : Models) {
      MatrixCell C;
      C.Impl = Impl;
      C.Test = "T0";
      C.Model = M;
      Cells.push_back(C);
    }
  const std::map<std::string, trans::LoopBounds> Final = {
      {"serial", {{"L", 2}}}, {"sc", {{"L", 3}, {"M", 2}}},
      {"tso", {{"L", 9}}}, {"relaxed", {{"L", 4}}}};
  std::mutex Mu;
  std::map<std::string, std::vector<std::string>> Order;
  std::map<std::string, trans::LoopBounds> Seeds;
  CellFn Fake = [&](const MatrixCell &Cell) {
    const std::string Model = memmodel::modelName(Cell.Model);
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Order[Cell.Impl].push_back(Model);
      Seeds[Cell.Impl + ":" + Model] = Cell.SeedBounds;
    }
    CheckResult R;
    R.Status = Model == "tso" ? Status::Fail : Status::Pass;
    R.FinalBounds = Final.at(Model);
    return R;
  };
  MatrixReport Report = MatrixRunner(2).run(Cells, Fake);
  ASSERT_EQ(Report.Cells.size(), Cells.size());
  for (size_t I = 0; I < Cells.size(); ++I)
    EXPECT_EQ(Report.Cells[I].Cell.label(), Cells[I].label());

  const std::vector<std::string> Strongest = {"serial", "sc", "tso",
                                              "relaxed"};
  const trans::LoopBounds SerialAndSc = {{"L", 3}, {"M", 2}};
  for (const char *Impl : {"a", "b"}) {
    SCOPED_TRACE(Impl);
    const std::string P = Impl;
    EXPECT_EQ(Order[P], Strongest);
    EXPECT_EQ(Seeds[P + ":serial"], trans::LoopBounds());
    EXPECT_EQ(Seeds[P + ":sc"], Final.at("serial"));
    EXPECT_EQ(Seeds[P + ":tso"], SerialAndSc);
    EXPECT_EQ(Seeds[P + ":relaxed"], SerialAndSc); // tso failed
  }
}

TEST(MatrixRunner, ExpandFiltersKindMismatches) {
  // Explicit tests that do not fit an implementation's kind are dropped.
  std::vector<MatrixCell> Cells = expandMatrix(
      {"msn", "lazylist"}, {"T0", "Sac"}, {memmodel::ModelParams::relaxed()});
  ASSERT_EQ(Cells.size(), 2u);
  EXPECT_EQ(Cells[0].label(), "msn:T0:relaxed");
  EXPECT_EQ(Cells[1].label(), "lazylist:Sac:relaxed");
}

TEST(MatrixRunner, UnknownNamesBecomeErrorCells) {
  std::vector<MatrixCell> Cells(1);
  Cells[0].Impl = "no-such-impl";
  Cells[0].Test = "T0";
  MatrixReport Report =
      MatrixRunner(2).run(Cells, catalogCellRunner(RunOptions()));
  ASSERT_EQ(Report.Cells.size(), 1u);
  EXPECT_EQ(Report.Cells[0].Result.Status, Status::Error);
  EXPECT_FALSE(Report.allCompleted());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Hits(257);
  for (auto &H : Hits)
    H = 0;
  parallelFor(8, Hits.size(), [&](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I], 1) << "index " << I;
}

//===----------------------------------------------------------------------===//
// The request-scoped spec store: mining once must be a pure optimization.
//===----------------------------------------------------------------------===//

std::vector<MatrixCell> latticeCells(const std::string &Impl,
                                     const std::string &Test) {
  return expandMatrix({Impl}, {Test}, memmodel::latticeModels());
}

/// Every cell of a lattice sweep with or without a shared spec store, at
/// one job and at four (concurrent publishes): identical timing-free
/// reports, and the store answered the lattice points it could.
void expectStoreKeepsLatticeReport(const std::string &Impl,
                                   const std::string &Test, bool Strip) {
  SCOPED_TRACE(Impl + "/" + Test + (Strip ? " stripped" : " fenced"));
  std::vector<MatrixCell> Cells = latticeCells(Impl, Test);
  RunOptions Base;
  Base.StripFences = Strip;
  MatrixReport Plain = MatrixRunner(1).run(Cells, catalogCellRunner(Base));
  const std::string Want = Plain.json(/*IncludeTimings=*/false);
  for (int Jobs : {1, 4}) {
    SpecStore Specs;
    RunOptions Shared = Base;
    Shared.Check.Specs = &Specs;
    MatrixReport R =
        MatrixRunner(Jobs).run(Cells, catalogCellRunner(Shared));
    EXPECT_EQ(R.json(/*IncludeTimings=*/false), Want) << "jobs " << Jobs;
    EXPECT_GE(Specs.size(), 1u);
    EXPECT_LT(Specs.size(), Cells.size()) << "no lattice point was shared";
    if (Jobs == 1)
      EXPECT_GT(Specs.hits(), 0u);
  }
}

TEST(SpecStore, LatticeReportIsIdenticalWithAndWithoutStore) {
  for (bool Strip : {false, true}) {
    expectStoreKeepsLatticeReport("ms2", "T0", Strip);
    expectStoreKeepsLatticeReport("msn", "T0", Strip);
    expectStoreKeepsLatticeReport("lazylist", "Sac", Strip);
  }
}

TEST(SpecStore, FencedAndStrippedSpecsAgreeForEveryCatalogImpl) {
  // The store's soundness premise: fences are no-ops under the serial
  // model, so at equal bounds the fenced and stripped programs mine the
  // same observation set - and their fence-blind fingerprints agree.
  const std::map<std::string, std::string> TestFor = {
      {"queue", "T0"}, {"set", "Sac"}, {"deque", "D0"}, {"stack", "U0"}};
  for (const impls::ImplInfo &Info : impls::allImpls()) {
    SCOPED_TRACE(Info.Name);
    lsl::Program Fenced, Stripped;
    ASSERT_TRUE(compileInto(impls::sourceFor(Info.Name), Fenced));
    frontend::LoweringOptions LO;
    LO.StripFences = true;
    frontend::DiagEngine Diags;
    ASSERT_TRUE(frontend::compileC(impls::sourceFor(Info.Name), {},
                                   Stripped, Diags, LO));
    TestSpec Spec = testByName(TestFor.at(Info.Kind));
    std::vector<std::string> Threads = buildTestThreads(Fenced, Spec);
    ASSERT_EQ(Threads, buildTestThreads(Stripped, Spec));
    EXPECT_EQ(support::fenceBlindFingerprint(Fenced, Threads),
              support::fenceBlindFingerprint(Stripped, Threads));
    if (lsl::printProgram(Fenced) == lsl::printProgram(Stripped))
      ADD_FAILURE() << "implementation has no fences to strip";

    // The initial bounds and grown ones: the final bounds of an sc check
    // (snark fails there, the others pass with every loop unrolled far
    // enough).
    CheckOptions Opts;
    Opts.Model = memmodel::ModelParams::sc();
    CheckResult Probe = runCheck(Fenced, Threads, Opts);
    ASSERT_TRUE(Probe.Status == Status::Pass ||
                Probe.Status == Status::Fail)
        << Probe.Message;
    ProblemConfig Cfg;
    Cfg.Model = memmodel::ModelParams::serial();
    const trans::LoopBounds Initial, &Final = Probe.FinalBounds;
    for (const trans::LoopBounds *Bounds : {&Initial, &Final}) {
      SolveContext F(Fenced, Threads, *Bounds, Cfg);
      SolveContext S(Stripped, Threads, *Bounds, Cfg);
      MiningOutcome MF = mineSpecification(F);
      MiningOutcome MS = mineSpecification(S);
      ASSERT_TRUE(MF.Ok) << MF.Error;
      ASSERT_TRUE(MS.Ok) << MS.Error;
      EXPECT_EQ(MF.SequentialBug, MS.SequentialBug);
      EXPECT_EQ(MF.Spec, MS.Spec);
      if (Bounds == &Final)
        EXPECT_FALSE(MF.Spec.empty()) << "final bounds mine nothing";
    }
  }
}

TEST(SpecStore, NeverPublishesSequentialBugsOrErrors) {
  // The buggy lazy list mines cleanly at its initial bounds (those sets
  // are published) and hits the sequential bug once its loops grow: the
  // store holds exactly the clean mines, and a second run still finds
  // the bug instead of being served a set for the buggy bounds.
  SpecStore Specs;
  RunOptions Bug;
  Bug.Defines.insert("LAZYLIST_INIT_BUG");
  Bug.Check.Specs = &Specs;
  int CleanMines = 0;
  Bug.Check.Hooks.OnObservationsMined = [&](int) { ++CleanMines; };
  for (int Run = 0; Run < 2; ++Run) {
    CheckResult R = runTest(impls::sourceFor("lazylist"),
                            testByName("Sac"), Bug);
    EXPECT_EQ(R.Status, Status::SequentialBug) << R.Message;
    EXPECT_TRUE(R.Counterexample.has_value());
    if (Run == 0)
      EXPECT_EQ(Specs.size(), static_cast<size_t>(CleanMines));
  }
  EXPECT_EQ(Specs.hits(), static_cast<size_t>(CleanMines) / 2);

  // The observation cap turns mining into an Error outcome.
  SpecStore Capped;
  RunOptions Cap;
  Cap.Check.MaxObservations = 1;
  Cap.Check.Specs = &Capped;
  for (int Run = 0; Run < 2; ++Run) {
    CheckResult R = runTest(impls::sourceFor("ms2"), testByName("T0"), Cap);
    EXPECT_EQ(R.Status, Status::Error);
  }
  EXPECT_EQ(Capped.size(), 0u);
  EXPECT_EQ(Capped.hits(), 0u);
}

TEST(SpecStore, RefsetAndBudgetedChecksBypassTheStore) {
  SpecStore Specs;
  RunOptions Refset;
  Refset.SpecSource = impls::referenceFor("queue");
  Refset.Check.Model = memmodel::ModelParams::tso();
  Refset.Check.Specs = &Specs;
  RunOptions Budgeted;
  Budgeted.Check.Model = memmodel::ModelParams::tso();
  Budgeted.Check.ConflictBudget = 1 << 20;
  Budgeted.Check.Specs = &Specs;
  for (const RunOptions *O : {&Refset, &Budgeted}) {
    CheckResult R = runTest(impls::sourceFor("msn"), testByName("T0"), *O);
    EXPECT_EQ(R.Status, Status::Pass) << R.Message;
  }
  EXPECT_EQ(Specs.size(), 0u);

  // Bypassing covers lookups too: with the spec published by an
  // unbudgeted check, a budgeted one still mines for itself.
  RunOptions Plain = Budgeted;
  Plain.Check.ConflictBudget = -1;
  runTest(impls::sourceFor("msn"), testByName("T0"), Plain);
  ASSERT_GE(Specs.size(), 1u);
  const size_t Published = Specs.size();
  int Mined = 0;
  Budgeted.Check.Hooks.OnObservationsMined = [&](int) { ++Mined; };
  CheckResult R =
      runTest(impls::sourceFor("msn"), testByName("T0"), Budgeted);
  EXPECT_EQ(R.Status, Status::Pass) << R.Message;
  EXPECT_GT(Mined, 0);
  EXPECT_EQ(Specs.hits(), 0u);
  EXPECT_EQ(Specs.size(), Published);
}

TEST(SpecStore, ObservationsMinedFiresAsOftenAsWithoutStore) {
  for (bool Strip : {false, true}) {
    SCOPED_TRACE(Strip ? "stripped" : "fenced");
    std::vector<MatrixCell> Cells = latticeCells("msn", "T0");
    auto Count = [&](SpecStore *Specs) {
      std::mutex Mu;
      std::vector<int> Counts;
      RunOptions Base;
      Base.StripFences = Strip;
      Base.Check.Specs = Specs;
      Base.Check.Hooks.OnObservationsMined = [&](int N) {
        std::lock_guard<std::mutex> Lock(Mu);
        Counts.push_back(N);
      };
      MatrixRunner(1).run(Cells, catalogCellRunner(Base));
      return Counts;
    };
    SpecStore Specs;
    std::vector<int> Without = Count(nullptr);
    std::vector<int> With = Count(&Specs);
    EXPECT_EQ(With, Without);
    EXPECT_GE(Without.size(), Cells.size());
  }
}

TEST(SpecStore, TraceShowsReuseInsteadOfMining) {
  obs::Tracer T;
  SpecStore Specs;
  {
    obs::TraceContext Ctx(&T);
    RunOptions Base;
    Base.Check.Specs = &Specs;
    MatrixRunner(1).run(latticeCells("ms2", "T0"), catalogCellRunner(Base));
  }
  size_t Mines = 0, Reuses = 0;
  for (const obs::TraceEvent &E : T.events()) {
    Mines += E.Cat == "engine" && E.Name == "mine";
    Reuses += E.Cat == "engine" && E.Name == "spec_reuse";
  }
  EXPECT_EQ(Mines, Specs.size()) << "engine:mine must mean a real mine";
  EXPECT_EQ(Reuses, Specs.hits());
  EXPECT_GT(Reuses, 0u);
}

TEST(SpecStore, KeySeparatesBoundsAndPrefixes) {
  trans::LoopBounds A, B;
  B["main/b1@10"] = 2;
  EXPECT_NE(SpecStore::key("p", A), SpecStore::key("p", B));
  EXPECT_NE(SpecStore::key("p", B), SpecStore::key("q", B));
  SpecStore Specs;
  EXPECT_EQ(Specs.find(SpecStore::key("p", B)), nullptr);
  ObservationSet One;
  One.insert(Observation{false, {lsl::Value::integer(1)}});
  Specs.publish(SpecStore::key("p", B), One);
  Specs.publish(SpecStore::key("p", B), ObservationSet{}); // first wins
  SpecStore::SpecPtr Hit = Specs.find(SpecStore::key("p", B));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(*Hit, One);
  EXPECT_EQ(Specs.size(), 1u);
  EXPECT_EQ(Specs.hits(), 1u);
}

} // namespace
