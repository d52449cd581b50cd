//===--- ExploreTests.cpp - the scenario-exploration subsystem ---------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Covers the explore pipeline end to end: deterministic generation, the
// printer round-trip that persistence relies on, clean differential
// runs over the default model axis, corpus dedup across runs, report
// byte-identity across job counts and through the report's JSON decoder,
// and - via the injection seam - the shrinker and the persisted-repro
// re-check loop.
//
//===----------------------------------------------------------------------===//

#include "explore/Corpus.h"
#include "explore/Differential.h"
#include "explore/Explore.h"
#include "explore/Generator.h"
#include "explore/Shrinker.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"
#include "lsl/Printer.h"
#include "support/Fingerprint.h"
#include "support/JsonParse.h"

#include "checkfence/checkfence.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <unistd.h>

using namespace checkfence;
using namespace checkfence::explore;

namespace {

/// A scratch directory unique to this test binary run.
std::string scratchDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "cf-explore-" + Name +
                    std::to_string(::getpid());
  return Dir;
}

std::vector<memmodel::ModelParams> defaultAxis() {
  return {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
          memmodel::ModelParams::relaxed()};
}

/// The test injection seam: "diverges" whenever the compiled program
/// stores the constant 2 somewhere. Stable under every shrinker
/// reduction except the 2 -> 1 value shrink (which the shrinker then
/// correctly rejects).
std::string injectOnStoreOfTwo(const lsl::Program &Prog) {
  for (const auto &[Name, P] : Prog.procs()) {
    if (Name == "init_op" || Name.rfind("__", 0) == 0)
      continue;
    std::function<bool(const std::vector<lsl::Stmt *> &)> Scan =
        [&](const std::vector<lsl::Stmt *> &Body) {
          for (const lsl::Stmt *S : Body) {
            if (S->K == lsl::StmtKind::Const && S->ConstVal.isInt() &&
                S->ConstVal.intValue() == 2)
              return true;
            if (S->isBlockLike() && Scan(S->Body))
              return true;
          }
          return false;
        };
    if (Scan(P->Body))
      return "injected: stores the constant 2";
  }
  return std::string();
}

//===----------------------------------------------------------------------===//
// Generator determinism
//===----------------------------------------------------------------------===//

TEST(ExploreGenerator, ScenarioIsAPureFunctionOfSeedAndIndex) {
  Generator A(42, GeneratorLimits());
  Generator B(42, GeneratorLimits());
  for (int I = 0; I < 50; ++I) {
    Scenario SA = A.at(I);
    Scenario SB = B.at(I);
    EXPECT_EQ(SA.K, SB.K) << I;
    EXPECT_EQ(SA.Source, SB.Source) << I;
    EXPECT_EQ(SA.Impl, SB.Impl) << I;
    EXPECT_EQ(SA.Notation, SB.Notation) << I;
  }
}

TEST(ExploreGenerator, DifferentSeedsDiffer) {
  Generator A(1, GeneratorLimits());
  Generator B(2, GeneratorLimits());
  int Different = 0;
  for (int I = 0; I < 20; ++I) {
    Scenario SA = A.at(I);
    Scenario SB = B.at(I);
    Different += SA.Source != SB.Source || SA.Notation != SB.Notation;
  }
  EXPECT_GT(Different, 10);
}

TEST(ExploreGenerator, LitmusProgramsCompile) {
  Generator Gen(7, GeneratorLimits());
  int Litmus = 0;
  for (int I = 0; I < 40; ++I) {
    Scenario S = Gen.at(I);
    if (S.K != Scenario::Kind::Litmus)
      continue;
    ++Litmus;
    frontend::DiagEngine Diags;
    lsl::Program Prog;
    EXPECT_TRUE(frontend::compileC(S.Source, {}, Prog, Diags))
        << S.Source << "\n" << Diags.str();
  }
  EXPECT_GT(Litmus, 10);
}

TEST(ExploreGenerator, SymbolicNotationsParse) {
  Generator Gen(7, GeneratorLimits());
  int Symbolic = 0;
  for (int I = 0; I < 60; ++I) {
    Scenario S = Gen.at(I);
    if (S.K != Scenario::Kind::Symbolic)
      continue;
    ++Symbolic;
    const impls::ImplInfo *Info = impls::findImpl(S.Impl);
    ASSERT_NE(Info, nullptr) << S.Impl;
    harness::TestSpec Spec;
    std::string Err;
    EXPECT_TRUE(harness::parseTestNotation(
        S.Notation, harness::alphabetFor(Info->Kind), Spec, Err))
        << S.Notation << ": " << Err;
  }
  EXPECT_GT(Symbolic, 5);
}

//===----------------------------------------------------------------------===//
// Printer round-trip: the persistence contract.
//===----------------------------------------------------------------------===//

TEST(ExplorePrinter, GeneratedProgramsRoundTripByteForByte) {
  Generator Gen(11, GeneratorLimits());
  int Checked = 0;
  for (int I = 0; I < 60 && Checked < 25; ++I) {
    Scenario S = Gen.at(I);
    if (S.K != Scenario::Kind::Litmus)
      continue;
    frontend::DiagEngine Diags;
    lsl::Program Prog;
    ASSERT_TRUE(frontend::compileC(S.Source, {}, Prog, Diags))
        << Diags.str();

    std::string CSource, Error;
    ASSERT_TRUE(lsl::printCSource(Prog, CSource, Error))
        << Error << "\n" << S.Source;

    frontend::DiagEngine Diags2;
    lsl::Program Prog2;
    ASSERT_TRUE(frontend::compileC(CSource, {}, Prog2, Diags2))
        << CSource << "\n" << Diags2.str();
    EXPECT_EQ(lsl::printProgram(Prog), lsl::printProgram(Prog2))
        << "printer output re-lowered differently:\n" << CSource;
    // Identical lowered text means identical corpus fingerprint.
    EXPECT_EQ(support::loweredProgramFingerprint(Prog, {}),
              support::loweredProgramFingerprint(Prog2, {}));
    ++Checked;
  }
  EXPECT_GE(Checked, 25);
}

TEST(ExplorePrinter, RejectsProgramsOutsideTheFragment) {
  // Retry loops (while + break) are outside the explore fragment: the
  // printer must refuse, never emit wrong source.
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC("extern void observe(int v);\n"
                                 "int x;\n"
                                 "void init_op(void) { x = 0; }\n"
                                 "void t0_op(void) {\n"
                                 "  while (1) { if (x) break; }\n"
                                 "  observe(x);\n"
                                 "}\n",
                                 {}, Prog, Diags))
      << Diags.str();
  std::string CSource, Error;
  EXPECT_FALSE(lsl::printCSource(Prog, CSource, Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Differential runner: clean runs on the default axis.
//===----------------------------------------------------------------------===//

TEST(ExploreDifferential, GeneratedScenariosAgreeWithTheOracles) {
  Verifier V;
  DiffOptions Opts;
  Opts.Models = defaultAxis();
  DifferentialRunner Runner(V, Opts);
  Generator Gen(3, GeneratorLimits());
  int Ran = 0;
  for (int I = 0; I < 12; ++I) {
    Scenario S = Gen.at(I);
    ScenarioOutcome O = Runner.run(S);
    for (const Divergence &D : O.Divergences)
      ADD_FAILURE() << S.label() << " diverged [" << D.Kind << " @ "
                    << D.Model << "]: " << D.Detail << "\n"
                    << S.Source << S.Notation;
    Ran += O.Ran;
  }
  EXPECT_GE(Ran, 10);
}

//===----------------------------------------------------------------------===//
// End-to-end explore runs
//===----------------------------------------------------------------------===//

TEST(ExploreRun, CleanRunAndJobCountByteIdentity) {
  ExploreOptions Opts;
  Opts.Seed = 5;
  Opts.Budget = 12;
  Opts.Jobs = 1;

  Verifier V1;
  ExploreReport R1 = runExplore(V1, Opts);
  ASSERT_TRUE(R1.Ok) << R1.Error;
  EXPECT_TRUE(R1.Divergences.empty());
  EXPECT_EQ(R1.Run, 12);

  Opts.Jobs = 4;
  Verifier V4;
  ExploreReport R4 = runExplore(V4, Opts);
  ASSERT_TRUE(R4.Ok) << R4.Error;
  EXPECT_EQ(R1.json(false), R4.json(false));
  // Timing-full output differs (jobs field), timing-free must not.
  EXPECT_NE(R1.json(true), std::string());
}

TEST(ExploreRun, PublicFacadeRunsExplore) {
  Verifier V;
  ExploreOutcome E =
      V.explore(Request::explore().seed(9).budget(6).jobs(2).models(
          {"sc", "relaxed"}));
  ASSERT_TRUE(E.ok()) << E.error();
  EXPECT_TRUE(E.clean());
  EXPECT_EQ(E.run(), 6);
  EXPECT_EQ(E.seed(), 9u);
  std::string Json = E.json(false);
  EXPECT_NE(Json.find("\"kind\": \"explore\""), std::string::npos);
  EXPECT_NE(Json.find("\"schema_version\": 1"), std::string::npos);
}

TEST(ExploreRun, InvalidRequestsAreErrors) {
  Verifier V;
  EXPECT_FALSE(V.explore(Request::explore().budget(0)).ok());
  EXPECT_FALSE(
      V.explore(Request::explore().models({"not-a-model"})).ok());
}

TEST(ExploreRun, CorpusDedupsAcrossRuns) {
  std::string Dir = scratchDir("corpus");
  ExploreOptions Opts;
  Opts.Seed = 21;
  Opts.Budget = 5;
  Opts.CorpusDir = Dir;

  Verifier V;
  ExploreReport First = runExplore(V, Opts);
  ASSERT_TRUE(First.Ok) << First.Error;
  ASSERT_EQ(static_cast<int>(First.Scenarios.size()), 5);

  ExploreReport Second = runExplore(V, Opts);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  // Every scenario of the first run is remembered: the second spends
  // its budget on later indices.
  EXPECT_GE(Second.Deduplicated, 5);
  for (const ScenarioRecord &A : First.Scenarios)
    for (const ScenarioRecord &B : Second.Scenarios)
      EXPECT_NE(A.Label, B.Label);
}

TEST(ExploreRun, DecodedReportRendersTheSameBytes) {
  // The daemon sends json(true); the client's decoded copy must render
  // both forms as the original does, strings that need escaping too.
  ExploreReport Rep;
  Rep.Seed = 18446744073709551615ull;
  Rep.Budget = 3;
  Rep.Models = {"sc", "po:ll+ls,fwd"};
  Rep.Jobs = 4;
  Rep.Generated = 5;
  Rep.Deduplicated = 2;
  Rep.Run = 2;
  Rep.SkipEntries = 1;
  Rep.Shrunk = 1;
  Rep.WallSeconds = 1.23456;
  Rep.Warnings = {"repro for litmus-1 not persisted: \"disk\" full"};
  ScenarioRecord Ok{0, "litmus-0", "litmus", "ok", "sc 2 | tso 3", {}, 0.25};
  ScenarioRecord Div{1, "sym-1:ms2", "symbolic", "divergence",
                     "sc PASS\ttso FAIL", {"tso: search budget exceeded"},
                     0.0004};
  Rep.Scenarios = {Ok, Div};
  ExploreDivergence D;
  D.Label = "sym-1:ms2";
  D.Kind = "lattice-monotonicity";
  D.Detail = "sc: {[0 1]}\nrelaxed: {}";
  D.Shrunk = true;
  D.Threads = 2;
  D.Ops = 3;
  D.Notation = "( e | d )";
  D.Source = "int x;\nvoid t1_op(void) { x = 2; }\n";
  D.ReproPath = "corpus/repro-0123.c";
  Rep.Divergences = {D};

  auto Decode = [](const std::string &Text, ExploreReport &Out) {
    support::JsonValue Doc;
    std::string Error;
    if (!support::parseJson(Text, Doc, Error))
      return ::testing::AssertionFailure() << "parse: " << Error;
    if (!decodeReport(Doc, Out, Error))
      return ::testing::AssertionFailure() << "decode: " << Error;
    return ::testing::AssertionSuccess();
  };
  ExploreReport Back;
  ASSERT_TRUE(Decode(Rep.json(true), Back));
  EXPECT_EQ(Back.json(true), Rep.json(true));
  EXPECT_EQ(Back.json(false), Rep.json(false));
  EXPECT_EQ(Back.Seed, Rep.Seed);
  ASSERT_EQ(Back.Divergences.size(), 1u);
  EXPECT_EQ(Back.Divergences[0].Source, D.Source);
  EXPECT_EQ(Back.Divergences[0].ReproPath, D.ReproPath);
  ASSERT_TRUE(Decode(Rep.json(false), Back));
  EXPECT_EQ(Back.json(false), Rep.json(false));

  ExploreReport Failed;
  Failed.Ok = false;
  Failed.Error = "explore budget must be positive";
  ASSERT_TRUE(Decode(Failed.json(), Back));
  EXPECT_FALSE(Back.Ok);
  EXPECT_EQ(Back.Error, Failed.Error);
  EXPECT_EQ(Back.json(), Failed.json());

  // A payload that is not a whole explore report is refused rather than
  // read as an empty run.
  std::string Miscounted = Rep.json(false);
  Miscounted.replace(Miscounted.find("\"divergences\": 1"),
                    std::string("\"divergences\": 1").size(),
                    "\"divergences\": 2");
  for (const std::string &Bad :
       {std::string("[]"), std::string("{\"kind\": \"analysis\"}"),
        std::string("{\"kind\": \"explore\"}"), Miscounted})
    EXPECT_FALSE(Decode(Bad, Back)) << Bad;
}

//===----------------------------------------------------------------------===//
// Injected divergences: shrinking and the persisted-repro loop.
//===----------------------------------------------------------------------===//

TEST(ExploreShrink, InjectedDivergenceShrinksToMinimalPersistedRepro) {
  std::string Dir = scratchDir("shrink");
  ExploreOptions Opts;
  Opts.Seed = 1;
  Opts.Budget = 12;
  Opts.CorpusDir = Dir;
  Opts.Diff.Inject = injectOnStoreOfTwo;

  Verifier V;
  ExploreReport Rep = runExplore(V, Opts);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  ASSERT_FALSE(Rep.Divergences.empty())
      << "seed 1 generates no store of 2 in 12 scenarios?";

  const ExploreDivergence &D = Rep.Divergences.front();
  EXPECT_EQ(D.Kind, "injected");
  EXPECT_TRUE(D.Shrunk);
  EXPECT_LE(D.Threads, 2) << D.Source;
  EXPECT_LE(D.Ops, 3) << D.Source;
  ASSERT_FALSE(D.ReproPath.empty());
  ASSERT_FALSE(D.Source.empty());

  // The persisted file reproduces the divergence when re-run from disk.
  Repro R;
  std::string Error;
  ASSERT_TRUE(loadRepro(D.ReproPath, R, Error)) << Error;
  EXPECT_EQ(R.Div.Kind, "injected");
  EXPECT_EQ(R.Source, D.Source);

  DiffOptions Diff;
  for (const std::string &Name : R.Models) {
    auto M = memmodel::modelFromName(Name);
    ASSERT_TRUE(M.has_value()) << Name;
    Diff.Models.push_back(*M);
  }
  Diff.Inject = injectOnStoreOfTwo;
  ScenarioOutcome Again =
      DifferentialRunner(V, Diff).run(R.toScenario());
  ASSERT_FALSE(Again.Divergences.empty())
      << "persisted repro did not reproduce:\n" << R.Source;
  EXPECT_EQ(Again.Divergences.front().Kind, "injected");

  // Without the injection the shrunk program is clean: the repro
  // captures the (synthetic) bug, not a real checker defect.
  DiffOptions NoInject = Diff;
  NoInject.Inject = nullptr;
  EXPECT_TRUE(DifferentialRunner(V, NoInject)
                  .run(R.toScenario())
                  .Divergences.empty());
}

TEST(ExploreShrink, ShrinkerMinimizesDirectly) {
  // Hand-built scenario: three threads, plenty of droppable noise
  // around one store of 2.
  LitmusProgram P;
  P.NumVars = 3;
  {
    LitmusThread T;
    T.Stmts.push_back({LitmusStmt::Kind::StoreConst, 0, 0, 2,
                       lsl::FenceKind::LoadLoad});
    T.Stmts.push_back({LitmusStmt::Kind::Fence, 0, 0, 0,
                       lsl::FenceKind::StoreStore});
    T.Stmts.push_back({LitmusStmt::Kind::LoadObserve, 1, 0, 0,
                       lsl::FenceKind::LoadLoad});
    P.Threads.push_back(T);
  }
  {
    LitmusThread T;
    T.Stmts.push_back({LitmusStmt::Kind::StoreArg, 1, 0, 0,
                       lsl::FenceKind::LoadLoad});
    T.Stmts.push_back({LitmusStmt::Kind::AtomicIncr, 2, 0, 0,
                       lsl::FenceKind::LoadLoad});
    P.Threads.push_back(T);
  }
  {
    LitmusThread T;
    T.Stmts.push_back({LitmusStmt::Kind::LoadObserve, 2, 0, 0,
                       lsl::FenceKind::LoadLoad});
    P.Threads.push_back(T);
  }
  Scenario S;
  S.K = Scenario::Kind::Litmus;
  S.Litmus = P;
  S.HasStructure = true;
  S.Source = P.render();
  for (const LitmusThread &T : P.Threads)
    S.ThreadArgs.push_back(T.usesArg() ? 1 : 0);

  Verifier V;
  DiffOptions Opts;
  Opts.Models = defaultAxis();
  Opts.Inject = injectOnStoreOfTwo;
  ShrinkResult R = shrinkScenario(S, V, Opts);
  EXPECT_GT(R.Steps, 0);
  EXPECT_EQ(R.Min.threadCount(), 1);
  EXPECT_EQ(R.Min.opCount(), 1);
  EXPECT_EQ(R.Repro.Kind, "injected");
  // The sole surviving statement is the store of 2.
  EXPECT_NE(R.Min.Source.find("= 2;"), std::string::npos)
      << R.Min.Source;
}

//===----------------------------------------------------------------------===//
// Repro file format
//===----------------------------------------------------------------------===//

TEST(ExploreCorpus, ReproRoundTripsThroughTheFileFormat) {
  Repro R;
  R.Label = "litmus-3";
  R.Div = {"sat-vs-axiomatic", "tso", "sat: (0) | oracle: (0) (1)"};
  R.Models = {"sc", "tso"};
  R.Threads = 2;
  R.Ops = 3;
  R.Source = "extern void observe(int v);\nint x;\n"
             "void init_op(void) {\n  x = 0;\n}\n"
             "void t0_op(void) {\n  x = 1;\n}\n";

  Repro Back;
  std::string Error;
  ASSERT_TRUE(parseRepro(renderRepro(R), Back, Error)) << Error;
  EXPECT_EQ(Back.Label, R.Label);
  EXPECT_EQ(Back.Div.Kind, R.Div.Kind);
  EXPECT_EQ(Back.Div.Model, R.Div.Model);
  EXPECT_EQ(Back.Div.Detail, R.Div.Detail);
  EXPECT_EQ(Back.Models, R.Models);
  EXPECT_EQ(Back.Threads, 2);
  EXPECT_EQ(Back.Ops, 3);
  EXPECT_EQ(Back.Source, R.Source);

  Repro Sym;
  Sym.Label = "sym-1";
  Sym.Div = {"lattice-monotonicity", "", "relaxed=FAIL sc=PASS"};
  Sym.Models = {"sc", "relaxed"};
  Sym.Impl = "msn";
  Sym.Notation = "e ( e d | d e' )";
  ASSERT_TRUE(parseRepro(renderRepro(Sym), Back, Error)) << Error;
  EXPECT_EQ(Back.Impl, "msn");
  EXPECT_EQ(Back.Notation, Sym.Notation);
  EXPECT_TRUE(Back.Source.empty());

  EXPECT_FALSE(parseRepro("garbage", Back, Error));
  EXPECT_FALSE(parseRepro("checkfence-explore-repro 1\nend\n", Back,
                          Error));
}

} // namespace
